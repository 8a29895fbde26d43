package repro.segment

import scala.util.Random

import org.scalatest.funsuite.AnyFunSuite

class LinearSegmentationSpec extends AnyFunSuite {

  // ------------------------------------------------------------------
  // forwardFill
  // ------------------------------------------------------------------
  test("forwardFill carries the last observation forward") {
    val in = Array((0, Some(1.0)), (1, None: Option[Double]), (2, Some(3.0)), (3, None))
    assert(LinearSegmentation.forwardFill(in).toSeq == Seq((0, 1.0), (1, 1.0), (2, 3.0), (3, 3.0)))
  }

  test("forwardFill drops leading nulls") {
    val in = Array((0, None: Option[Double]), (1, None), (2, Some(5.0)), (3, None))
    assert(LinearSegmentation.forwardFill(in).toSeq == Seq((2, 5.0), (3, 5.0)))
  }

  test("forwardFill of all nulls is empty") {
    assert(LinearSegmentation.forwardFill(Array((0, None), (1, None))).isEmpty)
  }

  test("forwardFill without nulls is the identity") {
    val in = Array[(Int, Option[Double])]((0, Some(1.0)), (1, Some(2.0)))
    assert(LinearSegmentation.forwardFill(in).toSeq == Seq((0, 1.0), (1, 2.0)))
  }

  // ------------------------------------------------------------------
  // smoothSeries
  // ------------------------------------------------------------------
  private def series(vs: Double*): Array[(Int, Double)] = vs.zipWithIndex.map(_.swap).toArray

  test("delta = 0 is the identity on a noisy series") {
    val pts = series(1.0, 5.0, 2.0, 8.0, 3.0)
    assert(LinearSegmentation.smoothSeries(pts, 0.0).toSeq == pts.toSeq)
  }

  test("a perfectly linear series is unchanged for any delta") {
    val pts = series(0.0, 1.0, 2.0, 3.0, 4.0)
    Seq(0.0, 0.5, 100.0).foreach { d =>
      assert(LinearSegmentation.smoothSeries(pts, d).toSeq == pts.toSeq)
    }
  }

  test("a huge delta flattens everything onto the first-last chord") {
    val pts = series(0.0, 9.0, -3.0, 7.0, 4.0)
    val out = LinearSegmentation.smoothSeries(pts, 1000.0)
    (0 until 5).foreach(i => assert(math.abs(out(i)._2 - i.toDouble) < 1e-9))
  }

  test("small fluctuations below delta are ironed out, big jumps survive") {
    // Flat-ish then a step of 10.
    val pts = series(0.0, 0.1, -0.1, 0.05, 10.0, 10.1, 9.95, 10.0)
    val out = LinearSegmentation.smoothSeries(pts, 0.5)
    // The step between index 3 and 4 must persist (≈10 magnitude).
    assert(out(4)._2 - out(3)._2 > 8.0)
  }

  test("first and last points are always preserved exactly") {
    val r = new Random(3)
    val pts = series((0 until 50).map(_ => r.nextDouble() * 20): _*)
    Seq(0.0, 0.3, 2.0, 50.0).foreach { d =>
      val out = LinearSegmentation.smoothSeries(pts, d)
      assert(out.head == pts.head && out.last == pts.last)
    }
  }

  test("series of length <= 2 are returned untouched") {
    assert(LinearSegmentation.smoothSeries(Array.empty, 1.0).isEmpty)
    assert(LinearSegmentation.smoothSeries(series(5.0), 1.0).toSeq == Seq((0, 5.0)))
    assert(LinearSegmentation.smoothSeries(series(5.0, 7.0), 1.0).toSeq == Seq((0, 5.0), (1, 7.0)))
  }

  for (seed <- 1 to 8) {
    test(s"property: every smoothed point is within delta of its original (seed $seed)") {
      val r = new Random(seed)
      val delta = 0.2 + r.nextDouble()
      val pts = series((0 until 80).map(_ => r.nextDouble() * 10): _*)
      val out = LinearSegmentation.smoothSeries(pts, delta)
      assert(out.length == pts.length)
      pts.zip(out).foreach { case ((t0, v0), (t1, v1)) =>
        assert(t0 == t1)
        assert(math.abs(v0 - v1) <= delta + 1e-9, s"t=$t0 orig=$v0 smooth=$v1 delta=$delta")
      }
    }
  }

  test("property: timestamps are preserved with gaps in the grid") {
    val pts = Array((0, 1.0), (3, 2.0), (4, 8.0), (9, 3.0))
    val out = LinearSegmentation.smoothSeries(pts, 0.5)
    assert(out.map(_._1).toSeq == Seq(0, 3, 4, 9))
  }

  // ------------------------------------------------------------------
  // smooth: one sensor's raw points, as the per-sensor pass hands them over
  // ------------------------------------------------------------------
  test("smooth handles nulls and multiple sensors") {
    val rows = Seq[(String, Int, Option[Double])](
      ("a", 0, Some(1.0)), ("a", 1, None), ("a", 2, Some(4.0)),
      ("b", 0, None), ("b", 1, Some(2.0)), ("b", 2, Some(2.0)),
    )
    val out = rows.groupBy(_._1).toSeq.flatMap { case (id, rs) =>
      LinearSegmentation.smooth(rs.map(r => (r._2, r._3)).toArray, 0.0).map { case (t, v) => (id, t, v) }
    }.toSet
    assert(out == Set(("a", 0, 1.0), ("a", 1, 1.0), ("a", 2, 4.0), ("b", 1, 2.0), ("b", 2, 2.0)))
  }

  test("smooth with unsorted input sorts by tIdx per sensor") {
    val pts = Array[(Int, Option[Double])]((2, Some(3.0)), (0, Some(1.0)), (1, Some(2.0)))
    assert(LinearSegmentation.smooth(pts, 0.0).toSeq == Seq((0, 1.0), (1, 2.0), (2, 3.0)))
  }

  test("smooth rejects negative delta") {
    intercept[IllegalArgumentException] { LinearSegmentation.smooth(Array((0, Some(1.0))), -0.1) }
  }
}
