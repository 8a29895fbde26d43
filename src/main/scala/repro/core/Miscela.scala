package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame, Dataset, Encoder, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.evolve.EvolvingTimestamps
import repro.geo.ProximityGraph
import repro.segment.LinearSegmentation

/** A sensor routed to its spatial component, with its evolving timestamps
  * as index lists (bitset-encoded inside the search).
  */
final case class CompSensor(component: String, id: String, attribute: String, plus: Seq[Int], minus: Seq[Int])

/** An η-proximity edge routed to its spatial component. */
final case class CompEdge(component: String, src: String, dst: String)

/** One sensor's raw `data.csv` records as the per-sensor pass gathers
  * them, in no particular order: timestamps (epoch µs), values, and
  * whether each value is null. Primitive arrays keep the shuffle small.
  */
private[core] final case class SensorPoints(time: Array[Long], value: Array[Double], isNull: Array[Boolean]) {
  def ++(o: SensorPoints): SensorPoints = SensorPoints(time ++ o.time, value ++ o.value, isNull ++ o.isNull)

  /** The points with each timestamp replaced by its tIdx on `grid`. */
  def placedOn(grid: Array[Long]): Array[(Int, Option[Double])] =
    Array.tabulate(time.length)(i => (TimeIndex.of(grid, time(i)), if (isNull(i)) None else Some(value(i))))
}

private[core] object SensorPoints {
  final class Builder {
    private val time = mutable.ArrayBuilder.make[Long]
    private val value = mutable.ArrayBuilder.make[Double]
    private val isNull = mutable.ArrayBuilder.make[Boolean]
    def add(t: Long, v: Double, nul: Boolean): Unit = { time += t; value += v; isNull += nul }
    def result(): SensorPoints = SensorPoints(time.result(), value.result(), isNull.result())
  }
}

/** End-to-end MISCELA pipeline (Section 2.2) as a Spark dataflow.
  *
  * Stages 1–2 are one distributed pass per sensor: a single shuffle keyed
  * by sensor id gathers each sensor's records, the time grid is collected
  * once from its output ([[TimeIndex]]), and then each sensor's series is
  * forward-filled and smoothed ([[LinearSegmentation]]), its evolving
  * timestamps are extracted ([[EvolvingTimestamps]]), and it is dropped
  * if it has fewer than ψ of them or else routed to its spatial
  * component. Stage 3 runs before the pass: it collects the sensor
  * registry once and builds the η-proximity graph and its connected
  * components on the driver ([[ProximityGraph]]), so the pass looks each
  * sensor's component and attribute up in its closure. Stage 4 cogroups
  * sensors and edges by component and runs the pruned CAP search inside
  * each component's task — components are mined in parallel across the
  * cluster.
  */
object Miscela {

  /** Evolving events (id, tIdx, sign) for `data` under `params` — the
    * events of stages 1–2 as the per-sensor pass computes them, before the
    * ψ prune. `data` columns: id, attribute, time, data (nullable double).
    */
  def evolvingEvents(data: DataFrame, params: CapParams): DataFrame = {
    val spark = data.sparkSession
    import spark.implicits._
    sensorPass(data, params) { (id, plus, minus) =>
      plus.iterator.map((id, _, 1)) ++ minus.iterator.map((id, _, -1))
    }._1.toDF("id", "tIdx", "sign")
  }

  /** Each sensor's raw records, gathered by one shuffle keyed by sensor
    * id, and the time grid taken from that shuffle's output — `data` is
    * scanned once for both. Each map task sends one [[SensorPoints]] per
    * sensor it saw. Records with a null id or time are dropped.
    *
    * @return (points per sensor id, the grid: sorted distinct timestamps)
    */
  private[core] def sensorSeries(data: DataFrame): (RDD[(String, SensorPoints)], Array[Long]) = {
    val series = data
      .where(col("id").isNotNull && col("time").isNotNull)
      .select(col("id").cast("string"), unix_micros(col("time")), col("data").cast("double"))
      .rdd
      .mapPartitions { rows =>
        val byId = mutable.HashMap.empty[String, SensorPoints.Builder]
        rows.foreach { r =>
          byId.getOrElseUpdate(r.getString(0), new SensorPoints.Builder)
            .add(r.getLong(1), if (r.isNullAt(2)) 0.0 else r.getDouble(2), r.isNullAt(2))
        }
        byId.iterator.map { case (id, b) => id -> b.result() }
      }
      .reduceByKey(_ ++ _)
    (series, TimeIndex.grid(series.map(_._2.time)))
  }

  /** Stages 1–2 in one pass per sensor over [[sensorSeries]]: its records
    * placed on the time grid, forward-filled, smoothed, and cut into rises
    * and falls of more than ε; `out` turns (id, rises, falls) into output
    * rows.
    *
    * @return (the rows of `out`, number of timestamps on the grid)
    */
  private def sensorPass[T: Encoder](data: DataFrame, params: CapParams)(
      out: (String, Array[Int], Array[Int]) => Iterator[T],
  ): (Dataset[T], Int) = {
    val (series, grid) = sensorSeries(data)
    val (delta, epsilon) = (params.delta, params.epsilon)
    val rows = series.flatMap { case (id, pts) =>
      val (plus, minus) = EvolvingTimestamps.steps(LinearSegmentation.smooth(pts.placedOn(grid), delta), epsilon)
      out(id, plus, minus)
    }(implicitly[Encoder[T]].clsTag)
    (data.sparkSession.createDataset(rows), grid.length)
  }

  /** Spatial edges (src, dst, dist_km) and components (id, component) for
    * `locations` under η — stage 3. Both are small local DataFrames over
    * the driver-side [[ProximityGraph]].
    */
  def spatialComponents(spark: SparkSession, locations: DataFrame, params: CapParams): (DataFrame, DataFrame) = {
    import spark.implicits._
    val (graph, _) = proximityGraph(locations, params.etaKm)
    val edges = graph.edges.map(e => (e.src, e.dst, e.distKm)).toDF("src", "dst", "dist_km")
    val comps = graph.ids.zip(graph.components).toDF("id", "component")
    (edges, comps)
  }

  /** Collects the sensor registry (id, lat, lon, then `extra` columns) in
    * one job and builds its η-graph. A null coordinate reads as NaN, which
    * [[ProximityGraph]] rejects by sensor id.
    */
  private def proximityGraph(locations: DataFrame, etaKm: Double, extra: Column*): (ProximityGraph, Array[Row]) = {
    val rows = locations
      .select(col("id").cast("string") +: col("lat").cast("double") +: col("lon").cast("double") +: extra: _*)
      .collect()
    def coord(r: Row, i: Int) = if (r.isNullAt(i)) Double.NaN else r.getDouble(i)
    (ProximityGraph(rows.toSeq.map(r => (r.getString(0), coord(r, 1), coord(r, 2))), etaKm), rows)
  }

  /** Stages 1–3 plus routing: sensors and η-edges keyed by component —
    * the one routing step of both [[mine]] and [[assembleComponents]].
    *
    * A sensor with fewer than ψ evolving timestamps can never appear in a
    * CAP (a set's support is bounded by each member's own support), so the
    * per-sensor pass drops it — a safe prune applied identically for both
    * search strategies. Each kept sensor looks up its component and
    * attribute in the collected registry, so routing adds no join; a sensor
    * missing from the registry is dropped.
    *
    * @return (sensors per component, edges per component, number of
    *         timestamps on the global grid)
    */
  private def routed(
      data: DataFrame,
      locations: DataFrame,
      params: CapParams,
  ): (Dataset[CompSensor], Seq[CompEdge], Int) = {
    val spark = data.sparkSession
    import spark.implicits._
    val (graph, registry) = proximityGraph(locations, params.etaKm, col("attribute").cast("string"))
    val componentOf = graph.componentOf
    // id -> (component, attribute), shipped to the tasks with the closure.
    val route = registry.iterator.map(r => r.getString(0) -> (componentOf(r.getString(0)), r.getString(3))).toMap
    val psi = params.psi
    val (compSensors, nT) = sensorPass(data, params) { (id, plus, minus) =>
      if (plus.length + minus.length < psi) Iterator.empty
      else route.get(id).iterator.map { case (component, attribute) =>
        CompSensor(component, id, attribute, ArraySeq.unsafeWrapArray(plus), ArraySeq.unsafeWrapArray(minus))
      }
    }
    val compEdges = graph.edges.map(e => CompEdge(componentOf(e.src), e.src, e.dst))
    (compSensors, compEdges, nT)
  }

  /** Full CAP mining: all four stages.
    *
    * @param data      measurement records (id, attribute, time, data)
    * @param locations sensor registry (id, attribute, lat, lon)
    * @param useNaive  swap the pruned CAP search for the brute-force
    *                  baseline (identical output, used by the T3 bench)
    * @return all CAPs of the dataset under `params`
    */
  def mine(
      spark: SparkSession,
      data: DataFrame,
      locations: DataFrame,
      params: CapParams,
      useNaive: Boolean = false,
  ): Dataset[Cap] = {
    import spark.implicits._
    val (compSensors, compEdges, nT) = routed(data, locations, params)
    compSensors
      .groupByKey(_.component)
      .cogroup(compEdges.toDS().groupByKey(_.component)) { (_, sensorIt, edgeIt) =>
        searchAssembled(sensorIt.toArray, edgeIt.toArray, nT, params, useNaive).iterator
      }
  }

  /** Runs stages 1–3 and collects each component's sensors and edges to
    * the driver, for harnesses that time the search stage in isolation
    * (T3) — returns (sensors, edges, nT) per component.
    */
  def assembleComponents(
      spark: SparkSession,
      data: DataFrame,
      locations: DataFrame,
      params: CapParams,
  ): Seq[(Array[CompSensor], Array[CompEdge], Int)] = {
    val (compSensors, compEdges, nT) = routed(data, locations, params)
    val edgesByComp = compEdges.toArray.groupBy(_.component)
    compSensors.collect().groupBy(_.component).toSeq.sortBy(_._1).map { case (c, sensors) =>
      (sensors, edgesByComp.getOrElse(c, Array.empty[CompEdge]), nT)
    }
  }

  /** Builds one component's in-memory structures and runs the chosen
    * search on it: the search step of [[mine]], and of harnesses that time
    * it on the output of [[assembleComponents]].
    */
  def searchAssembled(
      sensors: Array[CompSensor],
      edges: Array[CompEdge],
      nT: Int,
      params: CapParams,
      useNaive: Boolean,
  ): Seq[Cap] = {
    if (sensors.length < 2) return Nil
    val ordered = sensors.sortBy(_.id)
    val idx = ordered.iterator.map(_.id).zipWithIndex.toMap
    val events = ordered.map { s =>
      val plus = Bits.empty(nT)
      s.plus.foreach(Bits.set(plus, _))
      val minus = Bits.empty(nT)
      s.minus.foreach(Bits.set(minus, _))
      SensorEvents(s.id, s.attribute, plus, minus)
    }
    val adj = Array.fill(events.length)(Set.newBuilder[Int])
    edges.foreach { e =>
      // Edges may touch sensors pruned for lack of support; skip those.
      (idx.get(e.src), idx.get(e.dst)) match {
        case (Some(a), Some(b)) if a != b => adj(a) += b; adj(b) += a
        case _                            =>
      }
    }
    val adjArr = adj.map(_.result().toArray.sorted)
    if (useNaive) NaiveSearch.enumerate(events, adjArr, params)
    else CapSearch.enumerate(events, adjArr, params)
  }
}
