package repro.jobs

import repro.core.CapParams
import repro.data.SmartCityData
import repro.exp.T3Runtime

/** T3 entrypoint: MISCELA's pruned search vs the brute-force baseline.
  *
  * {{{
  * spark-submit --class repro.jobs.RuntimeBenchJob repro.jar \
  *   [--dataset santander] [--sf 0.1]
  * }}}
  */
object RuntimeBenchJob {
  def main(args: Array[String]): Unit = {
    val a = JobUtil.parse(args, Set("dataset", "sf"))
    val spark = JobUtil.session("T3-runtime")
    try {
      val ds = SmartCityData.byName(spark, a.str("dataset", "santander"), a.dbl("sf", 0.1))
      val rows = Seq(
        ("psi=200 maxS=3", CapParams(psi = 200, maxSensors = 3)),
        ("psi=100 maxS=4", CapParams(psi = 100, maxSensors = 4)),
        ("psi=50 maxS=5", CapParams(psi = 50, maxSensors = 5)),
        ("psi=20 maxS=6", CapParams(psi = 20, maxSensors = 6)),
      ).map { case (label, p) => T3Runtime.compareSearchOnly(spark, ds, p, label) }
      println(T3Runtime.table(rows, s"T3 search runtime (${ds.name}, sf=${a.dbl("sf", 0.1)})"))
    } finally spark.stop()
  }
}
