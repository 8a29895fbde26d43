package repro.segment

/** MISCELA step 1: "filter uninteresting data fluctuation by applying a
  * linear segmentation algorithm to time series data".
  *
  * We implement the classic sliding-window piecewise-linear approximation
  * (PLA): starting from an anchor point, a segment is extended while every
  * interior point stays within `delta` of the straight line between the
  * anchor and the current endpoint; on violation the segment is emitted and
  * the endpoint becomes the next anchor (segments share endpoints, so the
  * reconstruction is continuous). The smoothed series is the original
  * series re-sampled onto those lines. `delta = 0` degenerates to the
  * identity (every adjacent pair is its own segment).
  *
  * Nulls (the paper's `data.csv` carries explicit nulls) are forward-filled
  * within each sensor series before segmentation; leading nulls are dropped
  * — a sensor with no measurement yet cannot evolve.
  *
  * This stage runs on one sensor's series inside the per-sensor pass of
  * [[repro.core.Miscela]]: series are at most a few thousand points, while
  * sensors number in the thousands, so the parallelism axis is the sensor,
  * exactly as the repro layering hint prescribes ("partitioned by
  * location").
  */
object LinearSegmentation {

  /** One sensor's (tIdx, value) points, in any order and with nullable
    * values, sorted by tIdx, forward-filled and smoothed.
    */
  def smooth(pts: Array[(Int, Option[Double])], delta: Double): Array[(Int, Double)] = {
    require(delta >= 0, s"delta must be non-negative, got $delta")
    smoothSeries(forwardFill(pts.sortBy(_._1)), delta)
  }

  /** Drops leading nulls, carries the last observation forward elsewhere. */
  private[segment] def forwardFill(pts: Array[(Int, Option[Double])]): Array[(Int, Double)] = {
    val out = Array.newBuilder[(Int, Double)]
    var last: Option[Double] = None
    pts.foreach { case (t, v) =>
      val cur = v.orElse(last)
      cur.foreach { x => out += ((t, x)); last = Some(x) }
    }
    out.result()
  }

  /** Sliding-window PLA over one (sorted, null-free) series. */
  private[repro] def smoothSeries(pts: Array[(Int, Double)], delta: Double): Array[(Int, Double)] = {
    if (pts.length <= 2) return pts
    val out = new Array[(Int, Double)](pts.length)
    var anchor = 0
    var i = 0
    while (anchor < pts.length - 1) {
      var end = anchor + 1
      // Extend while all interior points fit the anchor→end chord.
      var ok = true
      while (ok && end + 1 < pts.length) {
        val cand = end + 1
        ok = fits(pts, anchor, cand, delta)
        if (ok) end = cand
      }
      // Emit the segment [anchor, end): resample interior onto the chord.
      val (t0, v0) = pts(anchor)
      val (t1, v1) = pts(end)
      var j = anchor
      while (j < end) {
        val t = pts(j)._1
        out(j) = (t, v0 + (v1 - v0) * (t - t0).toDouble / (t1 - t0))
        j += 1
      }
      i = end
      anchor = end
    }
    out(pts.length - 1) = pts(pts.length - 1)
    out
  }

  /** True iff every interior point of [a, b] is within delta of the chord. */
  private def fits(pts: Array[(Int, Double)], a: Int, b: Int, delta: Double): Boolean = {
    val (t0, v0) = pts(a)
    val (t1, v1) = pts(b)
    var j = a + 1
    while (j < b) {
      val (t, v) = pts(j)
      val onLine = v0 + (v1 - v0) * (t - t0).toDouble / (t1 - t0)
      if (math.abs(v - onLine) > delta) return false
      j += 1
    }
    true
  }
}
