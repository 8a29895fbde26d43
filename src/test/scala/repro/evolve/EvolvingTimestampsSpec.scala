package repro.evolve

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.core.{CapParams, Miscela, TinyWorld}

/** Stage 2 as the per-sensor pass of [[Miscela]] runs it: series given as
  * (id, tIdx, value) rows are written as `data.csv` records at timestamp
  * `tIdx` of an hourly grid, and their events are read back through
  * [[Miscela.evolvingEvents]].
  */
class EvolvingTimestampsSpec extends SparkSpec {

  private def df(rows: (String, Int, Double)*): DataFrame = {
    import spark.implicits._
    rows.toDF("id", "tIdx", "value")
  }

  /** Events (id, tIdx, sign) of the series in `d`, from the fused pass. A
    * constant sensor at every grid timestamp up to the last one keeps the
    * grid dense, so tIdx on the grid equals tIdx in `d`.
    */
  private def viaPass(d: DataFrame, eps: Double): DataFrame = {
    import spark.implicits._
    val series = d.as[(String, Int, Double)].collect()
    val filler = (0 to series.map(_._2).max).map(t => ("~grid", t, 0.0))
    val data = (series ++ filler).toSeq
      .map { case (id, t, v) => (id, "temperature", TinyWorld.ts(t), v) }
      .toDF("id", "attribute", "time", "data")
    Miscela.evolvingEvents(data, CapParams(epsilon = eps)).where(col("id") =!= "~grid")
  }

  private def events(d: DataFrame, eps: Double): Set[(String, Int, Int)] =
    viaPass(d, eps).collect()
      .map(r => (r.getString(0), r.getInt(1), r.getInt(2))).toSet

  test("detects rises and falls with signs") {
    val d = df(("a", 0, 10.0), ("a", 1, 15.0), ("a", 2, 15.0), ("a", 3, 8.0))
    assert(events(d, 1.0) == Set(("a", 1, 1), ("a", 3, -1)))
  }

  test("the first timestamp never evolves (no predecessor)") {
    val d = df(("a", 0, 100.0), ("a", 1, 100.0))
    assert(events(d, 0.0) == Set.empty)
  }

  test("epsilon is a strict threshold: |delta| must exceed it") {
    val d = df(("a", 0, 0.0), ("a", 1, 1.0), ("a", 2, 3.0))
    // delta=1 at t1 (not > 1), delta=2 at t2 (> 1).
    assert(events(d, 1.0) == Set(("a", 2, 1)))
  }

  test("epsilon = 0 keeps any non-zero change and drops exact repeats") {
    val d = df(("a", 0, 5.0), ("a", 1, 5.0), ("a", 2, 5.5))
    assert(events(d, 0.0) == Set(("a", 2, 1)))
  }

  test("sensors are independent (window partitioned by id)") {
    val d = df(("a", 0, 0.0), ("a", 1, 10.0), ("b", 0, 100.0), ("b", 1, 90.0))
    assert(events(d, 1.0) == Set(("a", 1, 1), ("b", 1, -1)))
  }

  test("a sensor whose series is constant yields no events") {
    val d = df((0 until 20).map(i => ("a", i, 42.0)): _*)
    assert(events(d, 0.5) == Set.empty)
  }

  test("gaps in tIdx still compare against the previous available point") {
    val d = df(("a", 0, 1.0), ("a", 5, 4.0), ("a", 9, 4.0))
    assert(events(d, 1.0) == Set(("a", 5, 1)))
  }

  test("rejects negative epsilon") {
    intercept[IllegalArgumentException] {
      EvolvingTimestamps.steps(Array((0, 1.0)), -1.0)
    }
  }

  test("oracle: evolving extraction equals the DuckDB lag-window query") {
    val d = df(
      ("a", 0, 1.0), ("a", 1, 3.5), ("a", 2, 3.4), ("a", 3, 0.2),
      ("b", 0, 10.0), ("b", 1, 10.0), ("b", 2, 14.0),
      ("c", 0, -5.0), ("c", 1, -9.0), ("c", 2, -2.0),
    )
    val sparkDf = viaPass(d, 1.0)
    Oracle.assertEquivalent(
      sparkDf,
      """WITH t AS (
        |  SELECT id, CAST(tIdx AS INT) AS tIdx,
        |         CAST(value AS DOUBLE) - lag(CAST(value AS DOUBLE))
        |           OVER (PARTITION BY id ORDER BY CAST(tIdx AS INT)) AS delta
        |  FROM series
        |)
        |SELECT id, tIdx, CASE WHEN delta > 0 THEN 1 ELSE -1 END AS sign
        |FROM t WHERE delta IS NOT NULL AND abs(delta) > 1.0""".stripMargin,
      "series" -> d,
    )
  }

  test("oracle: per-sensor event counts match DuckDB") {
    val rows = (0 until 50).map { i =>
      ("s" + (i % 3), i / 3, math.sin(i / 3.0) * 10)
    }
    val d = df(rows: _*)
    val sparkDf = viaPass(d, 2.0)
      .groupBy("id").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      sparkDf,
      """WITH t AS (
        |  SELECT id, CAST(value AS DOUBLE) - lag(CAST(value AS DOUBLE))
        |    OVER (PARTITION BY id ORDER BY CAST(tIdx AS INT)) AS delta
        |  FROM series
        |)
        |SELECT id, count(*) AS n FROM t
        |WHERE delta IS NOT NULL AND abs(delta) > 2.0 GROUP BY id""".stripMargin,
      "series" -> d,
    )
  }
}
