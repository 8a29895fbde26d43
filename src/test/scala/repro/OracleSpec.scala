package repro

import org.apache.spark.sql.functions._

import repro.core.TinyWorld

/** Sanity checks for the DuckDB oracle the smart-city suites depend on,
  * over a small `data.csv`-shaped frame.
  */
class OracleSpec extends SparkSpec {

  private lazy val data = TinyWorld.dataDf(spark, Map(
    ("s1", "temperature") -> Seq(Some(20.5), None, Some(21.0), Some(22.5)),
    ("s2", "temperature") -> Seq(Some(19.0), Some(19.5), Some(19.5), None),
    ("s3", "trafficVolume") -> Seq(Some(120.0), Some(180.0), Some(95.0), Some(140.0)),
    ("s4", "light") -> Seq(None, Some(300.0), Some(310.0), Some(305.0)),
  ))

  private val perAttribute =
    "SELECT attribute, count(*) AS n, count(data) AS valued FROM records GROUP BY attribute"

  test("oracle accepts an equivalent aggregate") {
    val sparkDf = data.groupBy("attribute").agg(count(lit(1)).as("n"), count(col("data")).as("valued"))
    Oracle.assertEquivalent(sparkDf, perAttribute, "records" -> data)
  }

  test("oracle rejects a wrong result") {
    val wrong = data.groupBy("attribute").agg((count(lit(1)) + 1).as("n"), count(col("data")).as("valued"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, perAttribute, "records" -> data)
    }
  }

  test("oracle rejects mismatched column names") {
    val df = data.groupBy("attribute").agg(count(lit(1)).as("wrong_name"), count(col("data")).as("valued"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, perAttribute, "records" -> data)
    }
  }
}
