package repro.core

import scala.collection.mutable

import repro.geo.Haversine
import repro.segment.LinearSegmentation

/** MISCELA without Spark, written from the definitions, for differential
  * tests of [[Miscela.mine]]:
  *
  *  - a dense time index over the distinct timestamps;
  *  - per sensor, leading nulls dropped and later nulls forward-filled;
  *  - linear segmentation by the unit-tested
  *    [[repro.segment.LinearSegmentation.smoothSeries]];
  *  - an evolving event wherever a step exceeds ε in absolute value;
  *  - sensors with fewer than ψ events dropped;
  *  - η-edges between all sensor pairs closer than η, components by BFS;
  *  - [[CapSearch.enumerate]] per component.
  */
object ReferencePipeline {

  /** One `data.csv` row; `time` is any ordered timestamp. */
  final case class Record(id: String, attribute: String, time: Long, value: Option[Double])

  /** One `location.csv` row. */
  final case class Location(id: String, attribute: String, lat: Double, lon: Double)

  def caps(records: Seq[Record], locations: Seq[Location], p: CapParams): Seq[Cap] = {
    val times = records.map(_.time).distinct.sorted
    val tIdx = times.zipWithIndex.toMap
    val nT = times.size

    val events: Map[String, (Seq[Int], Seq[Int])] = records.groupBy(_.id).map { case (id, rs) =>
      val filled = mutable.ArrayBuffer.empty[(Int, Double)]
      var last: Option[Double] = None
      rs.sortBy(_.time).foreach { r =>
        last = r.value.orElse(last)
        last.foreach(v => filled += ((tIdx(r.time), v)))
      }
      val smoothed = LinearSegmentation.smoothSeries(filled.toArray, p.delta)
      val steps = smoothed.zip(smoothed.drop(1)).collect {
        case ((_, a), (t, b)) if math.abs(b - a) > p.epsilon => (t, b - a)
      }
      id -> (steps.collect { case (t, d) if d > 0 => t }.toSeq, steps.collect { case (t, d) if d < 0 => t }.toSeq)
    }

    val locs = locations.sortBy(_.id).toIndexedSeq
    val adj = Array.fill(locs.size)(mutable.ArrayBuffer.empty[Int])
    for (i <- locs.indices; j <- locs.indices if i != j) {
      val (a, b) = (locs(i), locs(j))
      if (Haversine.km(a.lat, a.lon, b.lat, b.lon) < p.etaKm) adj(i) += j
    }

    val seen = new Array[Boolean](locs.size)
    locs.indices.flatMap { start =>
      if (seen(start)) Nil
      else {
        val members = mutable.ArrayBuffer(start)
        seen(start) = true
        var k = 0
        while (k < members.size) {
          adj(members(k)).foreach(v => if (!seen(v)) { seen(v) = true; members += v })
          k += 1
        }
        search(members.sorted.toSeq, adj, locs, events, nT, p)
      }
    }
  }

  /** CapSearch over the sensors of one component (indices into `locs`)
    * that keep ψ events.
    */
  private def search(
      members: Seq[Int],
      adj: Array[mutable.ArrayBuffer[Int]],
      locs: IndexedSeq[Location],
      events: Map[String, (Seq[Int], Seq[Int])],
      nT: Int,
      p: CapParams,
  ): Seq[Cap] = {
    val kept = members.filter(i => events.get(locs(i).id).exists { case (u, d) => u.size + d.size >= p.psi })
    val local = kept.zipWithIndex.toMap
    val sensors = kept.map { i =>
      val (up, down) = events(locs(i).id)
      val (plus, minus) = (Bits.empty(nT), Bits.empty(nT))
      up.foreach(Bits.set(plus, _))
      down.foreach(Bits.set(minus, _))
      SensorEvents(locs(i).id, locs(i).attribute, plus, minus)
    }.toArray
    CapSearch.enumerate(sensors, kept.map(i => adj(i).flatMap(local.get).sorted.toArray).toArray, p)
  }
}
