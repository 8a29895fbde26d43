package repro.evolve

import scala.collection.mutable

/** MISCELA step 2: extract evolving timestamps.
  *
  * A sensor *evolves* at timestamp t if the change from the previous
  * timestamp exceeds the evolving rate ε: |v(t) − v(t−1)| > ε. The sign of
  * the change is kept because co-evolution under the default SameSign
  * policy requires all sensors of a pattern to move the same way.
  *
  * Runs on one sensor's smoothed series inside the per-sensor pass of
  * [[repro.core.Miscela]]; "previous" is the previous point of the series,
  * however many grid timestamps lie between them.
  */
object EvolvingTimestamps {

  /** From one smoothed series of (tIdx, value), sorted by tIdx, to its
    * evolving timestamps split by sign: (rises, falls).
    */
  def steps(series: Array[(Int, Double)], epsilon: Double): (Array[Int], Array[Int]) = {
    require(epsilon >= 0, s"epsilon must be non-negative, got $epsilon")
    val plus = mutable.ArrayBuilder.make[Int]
    val minus = mutable.ArrayBuilder.make[Int]
    var i = 1
    while (i < series.length) {
      val d = series(i)._2 - series(i - 1)._2
      if (math.abs(d) > epsilon) (if (d > 0) plus else minus) += series(i)._1
      i += 1
    }
    (plus.result(), minus.result())
  }
}
