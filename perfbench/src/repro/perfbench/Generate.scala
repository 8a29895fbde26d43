package repro.perfbench

import java.nio.file.Paths

import org.apache.spark.sql.SparkSession

import repro.data.SmartCityData
import repro.ingest.CsvExport

/** Writes every workload's dataset as the paper's upload files
  * (`data.csv`, `location.csv`, `attribute.csv`) under
  * `<out>/<generator>-sf<sf>/`. The files depend on the generator and the
  * scale factor only, so the build makes them once per checkout.
  *
  * {{{ Generate <out> <cores> }}}
  */
object Generate {
  def main(argv: Array[String]): Unit = {
    val Array(out, cores) = argv
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench-generate")
      .config("spark.sql.session.timeZone", "UTC")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", Paths.get(out, "spark-local").toString)
      .getOrCreate()
    try
      Workload.all.map(w => (w.generator, w.sf)).distinct.foreach { case (g, sf) =>
        CsvExport.write(SmartCityData.byName(spark, g, sf), Paths.get(out, Bench.datasetName(g, sf)).toString)
      }
    finally spark.stop()
  }
}
