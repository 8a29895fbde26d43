package repro.geo

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

/** The η-proximity self-join: the edges of [[ProximityGraph]]. */
class SpatialJoinSpec extends AnyFunSuite {

  private def edges(locs: Seq[(String, Double, Double)], eta: Double): IndexedSeq[ProximityGraph.Edge] =
    ProximityGraph(locs, eta).edges

  /** Reference implementation: brute-force all-pairs filter. */
  private def brute(locs: Seq[(String, Double, Double)], eta: Double): Set[(String, String)] =
    (for {
      (a, la, lo) <- locs
      (b, lb, lq) <- locs
      if a < b && Haversine.km(la, lo, lb, lq) < eta
    } yield (a, b)).toSet

  private def mined(locs: Seq[(String, Double, Double)], eta: Double): Set[(String, String)] =
    edges(locs, eta).map(e => (e.src, e.dst)).toSet

  test("two close sensors form one edge; a distant one stays apart") {
    val locs = Seq(("a", 43.4600, -3.8000), ("b", 43.4610, -3.8000), ("c", 43.5600, -3.8000))
    assert(mined(locs, 0.5) == Set(("a", "b")))
  }

  test("edge endpoints are ordered src < dst and deduplicated") {
    val locs = Seq(("b", 43.4600, -3.8000), ("a", 43.4601, -3.8000))
    val got = edges(locs, 0.5)
    assert(got.length == 1)
    assert(got(0).src == "a" && got(0).dst == "b")
  }

  test("co-located sensors (distinct ids) get a zero-distance edge") {
    val locs = Seq(("a", 43.46, -3.80), ("b", 43.46, -3.80))
    val got = edges(locs, 0.1)
    assert(got.length == 1 && got(0).distKm == 0.0)
  }

  test("a sensor never pairs with itself") {
    val locs = Seq(("a", 43.46, -3.80))
    assert(edges(locs, 100.0).isEmpty)
  }

  test("strict inequality: a pair exactly at eta is excluded") {
    // 1 degree of longitude at the equator.
    val d = Haversine.km(0.0, 0.0, 0.0, 1.0)
    val locs = Seq(("a", 0.0, 0.0), ("b", 0.0, 1.0))
    assert(mined(locs, d) == Set.empty)
    assert(mined(locs, d + 0.001) == Set(("a", "b")))
  }

  test("country-scale eta connects cities across cell boundaries") {
    val locs = Seq(("a", 20.0, 80.0), ("b", 23.5, 80.0), ("c", 20.0, 80.5))
    val got = mined(locs, 450.0)
    assert(got == brute(locs, 450.0))
    assert(got.contains(("a", "b")) && got.contains(("a", "c")))
  }

  for (seed <- 1 to 6; eta <- Seq(0.3, 2.0, 60.0)) {
    test(s"random city matches brute force (seed $seed, eta $eta km)") {
      val r = new Random(seed * 1000 + eta.toInt)
      val locs = (0 until 40).map { i =>
        (f"s$i%03d", 43.0 + r.nextDouble() * 0.8, -4.0 + r.nextDouble() * 0.8)
      }
      assert(mined(locs, eta) == brute(locs, eta))
    }
  }

  for (seed <- 1 to 3) {
    test(s"random high-latitude cluster matches brute force (seed $seed)") {
      val r = new Random(seed)
      val locs = (0 until 30).map { i =>
        (f"s$i%03d", 64.0 + r.nextDouble() * 0.5, 10.0 + r.nextDouble() * 2.0)
      }
      assert(mined(locs, 5.0) == brute(locs, 5.0))
    }
  }

  test("southern hemisphere / negative coordinates match brute force") {
    val r = new Random(7)
    val locs = (0 until 30).map { i =>
      (f"s$i%03d", -34.0 - r.nextDouble() * 0.5, -58.0 - r.nextDouble() * 0.5)
    }
    assert(mined(locs, 10.0) == brute(locs, 10.0))
  }

  test("reported distances equal the haversine distance") {
    val r = new Random(11)
    val locs = (0 until 15).map(i => (f"s$i%03d", 43.0 + r.nextDouble() * 0.1, -4.0 + r.nextDouble() * 0.1))
    val byId = locs.map(l => l._1 -> l).toMap
    val got = edges(locs, 10.0)
    assert(got.nonEmpty)
    got.foreach { e =>
      val a = byId(e.src); val b = byId(e.dst)
      assert(e.distKm == Haversine.km(a._2, a._3, b._2, b._3))
    }
  }

  test("rejects non-positive eta") {
    intercept[IllegalArgumentException](edges(Seq(("a", 0.0, 0.0)), 0.0))
    intercept[IllegalArgumentException](edges(Seq(("a", 0.0, 0.0)), -1.0))
  }

  test("a pair just under eta spanning a whole 111.32 km/deg cell is found") {
    // A meridian pair 0.9989 eta apart whose latitude difference exceeds
    // eta / 111.32 degrees, placed to straddle two such cell boundaries.
    val eta = 10.0
    val cell = eta / 111.32
    val locs = Seq(("a", 2 * cell - 1e-9, 5.0), ("b", 3 * cell + 1e-9, 5.0))
    assert(Haversine.km(locs(0)._2, 5.0, locs(1)._2, 5.0) < eta)
    assert(mined(locs, eta) == Set(("a", "b")))
  }

  test("pairs across the antimeridian are found") {
    val locs = Seq(("a", 10.0, 179.999), ("b", 10.0, -179.999), ("c", -65.0, 180.0), ("d", -65.0, -179.99))
    assert(mined(locs, 1.0) == Set(("a", "b"), ("c", "d")))
  }

  for (seed <- 1 to 3) {
    test(s"random points near a pole match brute force (seed $seed)") {
      val r = new Random(seed)
      val locs = (0 until 40).map(i => (f"s$i%03d", 89.0 + r.nextDouble(), r.nextDouble() * 360 - 180))
      assert(mined(locs, 40.0) == brute(locs, 40.0))
    }
  }

  test("random world-scale points match brute force") {
    val r = new Random(17)
    val locs = (0 until 200).map(i => (f"s$i%03d", r.nextDouble() * 180 - 90, r.nextDouble() * 360 - 180))
    for (eta <- Seq(300.0, 2000.0, 25000.0)) assert(mined(locs, eta) == brute(locs, eta), s"eta $eta")
  }
}
