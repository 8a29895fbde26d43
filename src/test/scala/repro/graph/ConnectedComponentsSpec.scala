package repro.graph

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

import repro.geo.{Haversine, ProximityGraph}

/** Connected components of the η-proximity graph: the labelling of
  * [[ProximityGraph]], checked against union-find over brute-force edges.
  */
class ConnectedComponentsSpec extends AnyFunSuite {

  private type Site = (String, Double, Double)

  /** One km along the equator, in degrees of longitude. */
  private val KmDeg = 1.0 / (Haversine.EarthRadiusKm * math.Pi / 180)

  /** Sites on the equator at the given km positions. */
  private def onLine(ids: Seq[String], kms: Seq[Double]): Seq[Site] =
    ids.zip(kms).map { case (id, km) => (id, 0.0, km * KmDeg) }

  private def components(sites: Seq[Site], eta: Double): Map[String, String] =
    ProximityGraph(sites, eta).componentOf

  /** Reference: union-find over all pairs closer than eta. */
  private def unionFind(sites: Seq[Site], eta: Double): Map[String, Set[String]] = {
    val ids = sites.map(_._1)
    val parent = scala.collection.mutable.Map(ids.map(i => i -> i): _*)
    def find(x: String): String = if (parent(x) == x) x else { val r = find(parent(x)); parent(x) = r; r }
    for ((a, la, lo) <- sites; (b, lb, lq) <- sites if Haversine.km(la, lo, lb, lq) < eta)
      parent(find(a)) = find(b)
    ids.groupBy(find).map { case (_, members) => (members.min, members.toSet) }
  }

  private def asSets(labels: Map[String, String]): Map[String, Set[String]] =
    labels.groupBy(_._2).map { case (_, m) => (m.keys.min, m.keySet) }

  test("isolated vertices are singleton components") {
    val got = components(onLine(Seq("a", "b", "c"), Seq(0.0, 5.0, 10.0)), 1.0)
    assert(got == Map("a" -> "a", "b" -> "b", "c" -> "c"))
  }

  test("one edge merges two vertices under the min label") {
    assert(components(onLine(Seq("b", "a"), Seq(0.0, 0.5)), 1.0) == Map("a" -> "a", "b" -> "a"))
  }

  test("a chain collapses to its minimum id") {
    // Neighbours 0.6 km apart, next-but-one 1.2 km: only consecutive edges.
    val ids = (0 until 8).map(i => s"v$i")
    val g = ProximityGraph(onLine(ids, ids.indices.map(_ * 0.6)), 1.0)
    assert(g.edges.size == 7)
    assert(g.components.toSet == Set("v0"))
  }

  test("two separate triangles stay separate") {
    val sites = Seq(
      ("a", 43.460, -3.800), ("b", 43.461, -3.800), ("c", 43.4605, -3.801),
      ("x", 43.560, -3.900), ("y", 43.561, -3.900), ("z", 43.5605, -3.901),
    )
    val g = ProximityGraph(sites, 0.5)
    assert(g.edges.size == 6)
    assert(asSets(g.componentOf) == Map("a" -> Set("a", "b", "c"), "x" -> Set("x", "y", "z")))
  }

  test("direction of the edge list is ignored") {
    // Ids out of order along the line (c - a - b), fed in both orders.
    val sites = onLine(Seq("c", "a", "b"), Seq(0.0, 0.6, 1.2))
    val g1 = ProximityGraph(sites, 1.0)
    val g2 = ProximityGraph(sites.reverse, 1.0)
    assert(g1.components.toSet == Set("a"))
    assert(g1.componentOf == g2.componentOf && g1.edges == g2.edges)
    assert(g1.edges.map(e => (e.src, e.dst)).toSet == Set(("a", "b"), ("a", "c")))
  }

  test("duplicate and self edges are harmless") {
    // Three sensors at one point: each pair once, never a sensor with itself.
    val g = ProximityGraph(Seq(("a", 1.0, 1.0), ("b", 1.0, 1.0), ("c", 1.0, 1.0)), 0.1)
    assert(g.edges.map(e => (e.src, e.dst)) == Seq(("a", "b"), ("a", "c"), ("b", "c")))
    assert(g.componentOf == Map("a" -> "a", "b" -> "a", "c" -> "a"))
  }

  test("vertices with no edge rows still appear in the labelling") {
    val got = components(onLine(Seq("a", "b", "lonely"), Seq(0.0, 0.5, 50.0)), 1.0)
    assert(got("lonely") == "lonely")
  }

  test("a 500-sensor collinear chain is one component") {
    // A road of 499 hops: label propagation needs one round per hop,
    // union-find has no round limit.
    val ids = (0 until 500).map(i => f"v$i%03d")
    val g = ProximityGraph(onLine(ids, ids.indices.map(_ * 0.9)), 1.0)
    assert(g.edges.size == 499)
    assert(g.components.toSet == Set("v000"))
  }

  for (seed <- 1 to 8) {
    test(s"random graph matches union-find (seed $seed)") {
      val r = new Random(seed)
      val n = 20 + r.nextInt(20)
      val sites = (0 until n).map(i => (f"v$i%03d", 43.0 + r.nextDouble() * 0.1, -4.0 + r.nextDouble() * 0.1))
      assert(asSets(components(sites, 1.5)) == unionFind(sites, 1.5))
    }
  }

  for (seed <- 9 to 11) {
    test(s"random dense graph matches union-find (seed $seed)") {
      val r = new Random(seed)
      val sites = (0 until 15).map(i => (f"v$i%03d", 43.0 + r.nextDouble() * 0.05, -4.0 + r.nextDouble() * 0.05))
      assert(asSets(components(sites, 2.5)) == unionFind(sites, 2.5))
    }
  }
}
