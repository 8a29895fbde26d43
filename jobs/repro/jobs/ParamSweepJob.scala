package repro.jobs

import repro.data.SmartCityData
import repro.exp.T2Sweep

/** T2 entrypoint: parameter-sensitivity sweep of #CAPs on one dataset.
  *
  * {{{
  * spark-submit --class repro.jobs.ParamSweepJob repro.jar \
  *   [--dataset santander] [--sf 0.1] [--epsilon 1.0] [--eta 0.5] \
  *   [--mu 3] [--psi 50] [--max-sensors 4]
  * }}}
  */
object ParamSweepJob {
  def main(args: Array[String]): Unit = {
    val a = JobUtil.parse(args, JobUtil.CapKeys ++ Set("dataset", "sf"))
    val spark = JobUtil.session("T2-param-sweep")
    try {
      val ds = SmartCityData.byName(spark, a.str("dataset", "santander"), a.dbl("sf", 0.1))
      val base = a.capParams(repro.core.CapParams(psi = 50, maxSensors = 4))
      val rows = T2Sweep.sweep(
        spark, ds, base,
        epsilons = Seq(0.5, 1.0, 2.0, 5.0, 9.0),
        etas = Seq(0.2, 0.5, 1.0, 2.0),
        psis = Seq(10, 50, 100, 200),
        mus = Seq(2, 3, 4),
      )
      println(T2Sweep.table(rows, s"T2 parameter sensitivity (${ds.name}, sf=${a.dbl("sf", 0.1)})"))
    } finally spark.stop()
  }
}
