package repro.core

import repro.SparkSpec

/** The time grid of the per-sensor pass: [[Miscela.sensorSeries]] gathers
  * each sensor's records and collects the grid from them, and each record
  * is placed on it by [[TimeIndex.of]].
  */
class TimeIndexSpec extends SparkSpec {
  import TinyWorld._

  private def grid(data: org.apache.spark.sql.DataFrame): Array[Long] = Miscela.sensorSeries(data)._2

  /** (id, tIdx) of every record of `data`, as the pass places it. */
  private def attach(data: org.apache.spark.sql.DataFrame): Seq[(String, Int)] = {
    val (series, g) = Miscela.sensorSeries(data)
    series.collect().toSeq.flatMap { case (id, pts) => pts.placedOn(g).map(p => (id, p._1)) }
  }

  test("build assigns dense ascending indices in time order") {
    val data = dataDf(spark, Map(("a", "t") -> Seq(Some(1.0), Some(2.0), Some(3.0))))
    val g = grid(data)
    assert(g.toSeq == (0 until 3).map(i => ts(i).getTime * 1000L))
    assert(g.toSeq.map(TimeIndex.of(g, _)) == Seq(0, 1, 2))
  }

  test("attach keys every record to the shared grid across sensors") {
    val data = dataDf(spark, Map(
      ("a", "t") -> Seq(Some(1.0), Some(2.0)),
      ("b", "u") -> Seq(Some(3.0), Some(4.0)),
    ))
    assert(attach(data).toSet == Set(("a", 0), ("a", 1), ("b", 0), ("b", 1)))
  }

  test("sensors with ragged lengths still share indices for common timestamps") {
    val data = dataDf(spark, Map(
      ("a", "t") -> Seq(Some(1.0), Some(2.0), Some(3.0)),
      ("b", "u") -> Seq(Some(5.0)),
    ))
    val byId = attach(data).groupBy(_._1).view.mapValues(_.map(_._2).sorted).toMap
    assert(byId("a") == Seq(0, 1, 2))
    assert(byId("b") == Seq(0))
  }

  test("duplicate (sensor, time) rows do not create duplicate grid slots") {
    val base = dataDf(spark, Map(("a", "t") -> Seq(Some(1.0), Some(2.0))))
    val data = base.union(base)
    assert(grid(data).length == 2)
  }

  test("a timestamp off the grid is rejected") {
    val grid = Array(10L, 20L, 30L)
    intercept[IllegalArgumentException](TimeIndex.of(grid, 15L))
  }
}
