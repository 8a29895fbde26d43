package repro.core

import org.apache.spark.sql.{Column, DataFrame, Dataset, Row, SparkSession}
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

/** End-to-end MISCELA pipeline (Section 2.2) as a Spark dataflow.
  *
  * Stage 1 linear segmentation and stage 2 evolving-timestamp extraction
  * are per-sensor window dataflows; stage 3 collects the sensor registry
  * once and builds the η-proximity graph and its connected components on
  * the driver ([[ProximityGraph]]); stage 4 cogroups sensors and edges by
  * component and runs the pruned CAP search inside each component's task
  * — components are mined in parallel across the cluster.
  */
object Miscela {

  /** Evolving events (id, tIdx, sign) for `data` under `params` — stages
    * 1–2. `data` columns: id, attribute, time, data (nullable double).
    */
  def evolvingEvents(data: DataFrame, params: CapParams): DataFrame = {
    val indexed = TimeIndex.attach(data)
      .select(col("id"), col("tIdx"), col("data").cast("double").as("value"))
    val smoothed = LinearSegmentation.smooth(indexed, params.delta)
    EvolvingTimestamps.extract(smoothed, params.epsilon)
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

  /** Stages 1–3 plus routing: sensors and η-edges keyed by component.
    *
    * A sensor with fewer than ψ evolving timestamps can never appear in a
    * CAP (a set's support is bounded by each member's own support), so it
    * is dropped here — a safe prune applied identically for both search
    * strategies. Each kept sensor looks up its component and attribute in
    * the collected registry, so routing adds no join.
    *
    * @return (sensors per component, edges per component, number of
    *         timestamps on the global grid)
    */
  def routed(
      spark: SparkSession,
      data: DataFrame,
      locations: DataFrame,
      params: CapParams,
  ): (Dataset[CompSensor], Dataset[CompEdge], Int) = {
    import spark.implicits._
    val nT = data.select(col("time")).distinct().count().toInt
    val events = evolvingEvents(data, params)
    val (graph, registry) = proximityGraph(locations, params.etaKm, col("attribute").cast("string"))
    val componentOf = graph.componentOf
    // id -> (component, attribute), shipped to the tasks with the closure.
    val route = registry.iterator.map(r => r.getString(0) -> (componentOf(r.getString(0)), r.getString(3))).toMap

    val compSensors = events
      .groupBy("id")
      .agg(
        collect_list(when(col("sign") > 0, col("tIdx"))).as("plus"),
        collect_list(when(col("sign") < 0, col("tIdx"))).as("minus"),
      )
      .where(size(col("plus")) + size(col("minus")) >= params.psi)
      .select(col("id").cast("string"), col("plus"), col("minus"))
      .as[(String, Seq[Int], Seq[Int])]
      .flatMap { case (id, plus, minus) =>
        route.get(id).map { case (component, attribute) => CompSensor(component, id, attribute, plus, minus) }
      }

    val compEdges = graph.edges.map(e => CompEdge(componentOf(e.src), e.src, e.dst)).toDS()

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
    val (compSensors, compEdges, nT) = routed(spark, data, locations, params)
    compSensors
      .groupByKey(_.component)
      .cogroup(compEdges.groupByKey(_.component)) { (_, sensorIt, edgeIt) =>
        searchComponent(sensorIt.toArray, edgeIt.toArray, nT, params, useNaive).iterator
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
    val (compSensors, compEdges, nT) = routed(spark, data, locations, params)
    val edgesByComp = compEdges.collect().groupBy(_.component)
    compSensors.collect().groupBy(_.component).toSeq.sortBy(_._1).map { case (c, sensors) =>
      (sensors, edgesByComp.getOrElse(c, Array.empty[CompEdge]), nT)
    }
  }

  /** Runs the chosen search on one pre-assembled component (see
    * [[assembleComponents]]).
    */
  def searchAssembled(
      sensors: Array[CompSensor],
      edges: Array[CompEdge],
      nT: Int,
      params: CapParams,
      useNaive: Boolean,
  ): Seq[Cap] = searchComponent(sensors, edges, nT, params, useNaive)

  /** Builds the in-memory component structures and runs the chosen search.
    * Exposed for direct unit testing of the assembly step.
    */
  private[core] def searchComponent(
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
