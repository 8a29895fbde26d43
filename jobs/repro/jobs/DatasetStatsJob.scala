package repro.jobs

import repro.exp.T1Stats

/** T1 entrypoint: prints the dataset-statistics table (paper vs measured).
  *
  * {{{
  * spark-submit --class repro.jobs.DatasetStatsJob repro.jar [--sf 1.0]
  * }}}
  */
object DatasetStatsJob {
  def main(args: Array[String]): Unit = {
    val a = JobUtil.parse(args, Set("sf"))
    val spark = JobUtil.session("T1-dataset-stats")
    try println(T1Stats.table(spark, a.dbl("sf", 1.0)))
    finally spark.stop()
  }
}
