package repro.geo

import scala.collection.mutable

/** The η-proximity graph of a sensor registry and its connected components
  * (MISCELA step 3: "discovering spatially connected sets of sensors").
  *
  * Two sensors are adjacent iff their haversine distance is strictly below
  * η. The registry is small (at most 9,438 sensors, China6 at sf=1), so the
  * graph is built in plain Scala on the driver:
  *
  *  - Points are bucketed into a latitude × longitude grid whose cells are
  *    at least as wide, in degrees, as the largest difference a pair closer
  *    than η can have (see `Grid` below). A pair closer than η
  *    therefore lies in the same or adjacent cells, and only those pairs
  *    are compared with [[Haversine.km]]. Longitude cells wrap at the
  *    antimeridian.
  *  - Components come from union-find with path compression (Tarjan 1975),
  *    which has no round limit however long a chain of sensors gets. Each
  *    component is labelled with its minimum id.
  *
  * @param ids        sensor ids, ascending
  * @param components `components(i)` is the label of `ids(i)`: the minimum
  *                   id of its component (a sensor with no edge is its own
  *                   component)
  * @param edges      every unordered pair closer than η, once, with
  *                   `src < dst`, sorted by (src, dst)
  */
final class ProximityGraph private (
    val ids: IndexedSeq[String],
    val components: IndexedSeq[String],
    val edges: IndexedSeq[ProximityGraph.Edge],
) {

  /** id → component label. */
  def componentOf: Map[String, String] = ids.iterator.zip(components.iterator).toMap
}

object ProximityGraph {

  /** An η-edge with its haversine distance. */
  final case class Edge(src: String, dst: String, distKm: Double)

  /** Builds the graph over `sites` given as (id, lat, lon) in degrees.
    *
    * @throws IllegalArgumentException naming the sensor if an id is null or
    *         repeated, or a coordinate is NaN (a null read from a table) or
    *         out of range; or if η is not positive
    */
  def apply(sites: Seq[(String, Double, Double)], etaKm: Double): ProximityGraph = {
    require(etaKm > 0, s"etaKm must be positive, got $etaKm")
    val sorted = sites.toArray.sortBy(_._1)
    validate(sorted)
    val n = sorted.length
    val ids = sorted.map(_._1)
    val lat = sorted.map(_._2)
    val lon = sorted.map(_._3)

    val grid = Grid(etaKm, if (n == 0) 0.0 else lat.iterator.map(math.abs).max)
    val cellOf = Array.tabulate(n)(i => grid.cell(lat(i), lon(i)))
    val cells = (0 until n).groupBy(cellOf)

    val parent = Array.tabulate(n)(identity)
    def find(x: Int): Int = {
      var v = x
      while (parent(v) != v) { parent(v) = parent(parent(v)); v = parent(v) }
      v
    }

    val pairs = mutable.ArrayBuffer.empty[(Int, Int, Double)]
    for (i <- 0 until n; c <- grid.neighbours(cellOf(i)); j <- cells.getOrElse(c, Nil) if j > i) {
      val d = Haversine.km(lat(i), lon(i), lat(j), lon(j))
      if (d < etaKm) {
        pairs += ((i, j, d))
        // Link the larger root under the smaller, so every root is the
        // minimum index, hence the minimum id, of its component.
        val (ri, rj) = (find(i), find(j))
        if (ri < rj) parent(rj) = ri else if (rj < ri) parent(ri) = rj
      }
    }

    val edges = pairs.sortBy(p => (p._1, p._2)).map { case (i, j, d) => Edge(ids(i), ids(j), d) }
    new ProximityGraph(ids.toIndexedSeq, Array.tabulate(n)(i => ids(find(i))).toIndexedSeq, edges.toIndexedSeq)
  }

  private def validate(sorted: Array[(String, Double, Double)]): Unit = {
    var prev: String = null
    sorted.foreach { case (id, lat, lon) =>
      require(id != null, "a sensor has a null id")
      require(id != prev, s"duplicate sensor id '$id'")
      require(!lat.isNaN, s"sensor '$id': latitude is null or NaN")
      require(!lon.isNaN, s"sensor '$id': longitude is null or NaN")
      require(lat >= -90 && lat <= 90, s"sensor '$id': latitude $lat is outside [-90, 90]")
      require(lon >= -180 && lon <= 180, s"sensor '$id': longitude $lon is outside [-180, 180]")
      prev = id
    }
  }

  /** A grid whose cells hold every pair closer than `etaKm` in the same or
    * adjacent cells, for points with |lat| ≤ `maxAbsLat`.
    *
    * A pair at central angle θ < η / R has |Δlat| ≤ θ, so a row of θ
    * degrees suffices. Longitude follows from the haversine identity
    * hav θ = hav Δlat + cos lat₁ cos lat₂ hav Δlon ≥ cos² maxAbsLat hav Δlon:
    * sin(Δlon / 2) ≤ sin(θ / 2) / cos maxAbsLat. Columns split 360° evenly
    * so they wrap at the antimeridian; near the poles there may be a
    * single column. Both sizes carry a relative margin of 1e-9 against
    * rounding in the distance computation.
    */
  private final case class Grid(etaKm: Double, maxAbsLat: Double) {
    private val Margin = 1.0 + 1e-9
    private val angle = etaKm / Haversine.EarthRadiusKm
    private val rowDeg = math.toDegrees(angle) * Margin
    private val colDeg = {
      val s = math.sin(math.min(angle, math.Pi) / 2) / math.cos(math.toRadians(maxAbsLat))
      if (s >= 1 || angle >= math.Pi) 360.0 else math.toDegrees(2 * math.asin(s)) * Margin
    }
    private val nCols: Long = math.max(1L, math.floor(360.0 / colDeg).toLong)

    def cell(lat: Double, lon: Double): (Long, Long) =
      (math.floor((lat + 90) / rowDeg).toLong, math.floorMod(math.floor((lon + 180) / (360.0 / nCols)).toLong, nCols))

    /** The cell and its 8 neighbours, each once. */
    def neighbours(c: (Long, Long)): Set[(Long, Long)] =
      for (dy <- Set(-1L, 0L, 1L); dx <- Set(-1L, 0L, 1L)) yield (c._1 + dy, math.floorMod(c._2 + dx, nCols))
  }
}
