package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper

import repro.core.{Cap, CapParams, CompEdge, CompSensor, Miscela}
import repro.geo.Haversine

/** A CAP reduced to what the front end shows: attributes, sensors, support. */
final case class CanonCap(attributes: String, sensors: String, support: Long)

object CanonCap {
  def of(c: Cap): CanonCap = CanonCap(c.attributes.mkString(","), c.sensors.mkString(","), c.support)

  def sorted(caps: Iterable[CanonCap]): Vector[CanonCap] =
    caps.toVector.sortBy(c => (c.attributes, c.sensors, c.support))
}

/** The expected CAPs of a dataset, computed without Spark, `CapCache` or
  * `JsonExport`, from the CSV files the benchmark generated.
  *
  * Stages 1–3 are re-derived here from their definitions: a dense time
  * index over the distinct timestamps; per sensor, leading nulls dropped
  * and later nulls forward-filled; an evolving event wherever a step
  * exceeds ε in absolute value; sensors below ψ events dropped; η-edges
  * from all sensor pairs closer than η; components by union-find. Linear
  * segmentation with δ = 0 returns the series unchanged, so only δ = 0 is
  * supported. Stage 4 is the repository's search, called per component
  * through `Miscela.searchAssembled`.
  */
final class Reference(dataCsv: Path, locationCsv: Path) {

  private final case class Loc(id: String, attribute: String, lat: Double, lon: Double)
  private final case class Series(tIdx: Array[Int], value: Array[Double])

  private val locs: Vector[Loc] = lines(locationCsv).drop(1).map { l =>
    val f = l.split(",", -1)
    Loc(f(0), f(1), f(2).toDouble, f(3).toDouble)
  }.sortBy(_.id)

  /** (number of records, number of timestamps, forward-filled series per sensor id). */
  private val (nRecords: Int, nT: Int, series: Map[String, Series]) = {
    val rows = lines(dataCsv).drop(1).map(_.split(",", -1))
    val times = rows.iterator.map(_(2)).toVector.distinct.sorted
    val tIdx = times.zipWithIndex.toMap
    val bySensor = rows.groupBy(_(0)).map { case (id, rs) =>
      val pts = rs.map(r => (tIdx(r(2)), if (r(3) == "null") None else Some(r(3).toDouble))).sortBy(_._1)
      val filled = mutable.ArrayBuffer.empty[(Int, Double)]
      var last: Option[Double] = None
      pts.foreach { case (t, v) =>
        last = v.orElse(last)
        last.foreach(x => filled += ((t, x)))
      }
      id -> Series(filled.map(_._1).toArray, filled.map(_._2).toArray)
    }
    (rows.size, times.size, bySensor)
  }

  def records: Int = nRecords
  def sensors: Int = locs.size

  /** All CAPs of the dataset under `p`. */
  def caps(p: CapParams): Seq[Cap] = {
    require(p.delta == 0.0, s"the reference supports delta = 0 only, got ${p.delta}")
    val kept = locs.flatMap { l =>
      series.get(l.id).map { s =>
        val plus = mutable.ArrayBuffer.empty[Int]
        val minus = mutable.ArrayBuffer.empty[Int]
        var i = 1
        while (i < s.value.length) {
          val d = s.value(i) - s.value(i - 1)
          if (math.abs(d) > p.epsilon) (if (d > 0) plus else minus) += s.tIdx(i)
          i += 1
        }
        (l, plus.toSeq, minus.toSeq)
      }
    }.filter { case (_, plus, minus) => plus.size + minus.size >= p.psi }

    val edges = for {
      i <- locs.indices
      j <- (i + 1) until locs.size
      a = locs(i)
      b = locs(j)
      if Haversine.km(a.lat, a.lon, b.lat, b.lon) < p.etaKm
    } yield (a.id, b.id)

    val parent = mutable.Map.empty[String, String]
    def find(x: String): String = {
      val px = parent.getOrElse(x, x)
      if (px == x) x else { val r = find(px); parent(x) = r; r }
    }
    edges.foreach { case (a, b) =>
      val (ra, rb) = (find(a), find(b))
      if (ra < rb) parent(rb) = ra else if (rb < ra) parent(ra) = rb
    }

    val sensorsByComp = kept.map { case (l, plus, minus) =>
      CompSensor(find(l.id), l.id, l.attribute, plus, minus)
    }.groupBy(_.component)
    val edgesByComp = edges.map { case (a, b) => CompEdge(find(a), a, b) }.groupBy(_.component)
    sensorsByComp.toSeq.flatMap { case (c, ss) =>
      Miscela.searchAssembled(ss.toArray, edgesByComp.getOrElse(c, Nil).toArray, nT, p, useNaive = false)
    }
  }

  private def lines(p: Path): Vector[String] =
    Files.readAllLines(p, StandardCharsets.UTF_8).asScala.toVector.filter(_.nonEmpty)
}

/** Reads the `caps.json` payload back into canonical CAPs. */
object CapsJson {
  private val mapper = new ObjectMapper()

  def read(p: Path): Vector[CanonCap] =
    mapper.readTree(p.toFile).elements().asScala.map { o =>
      def strs(k: String) = o.get(k).elements().asScala.map(_.asText).mkString(",")
      CanonCap(strs("attributes"), strs("sensors"), o.get("support").asLong)
    }.toVector
}
