package repro.jobs

import java.nio.file.Files

import repro.cache.CapCache
import repro.core.CapParams
import repro.data.SmartCityData
import repro.exp.T4Cache

/** T4 entrypoint: cold-vs-warm latency of the caching mechanism.
  *
  * {{{
  * spark-submit --class repro.jobs.CacheBenchJob repro.jar \
  *   [--dataset santander] [--sf 0.1] [--cache-dir /tmp/capcache]
  * }}}
  */
object CacheBenchJob {
  def main(args: Array[String]): Unit = {
    val a = JobUtil.parse(args, JobUtil.CapKeys ++ Set("dataset", "sf", "cache-dir"))
    val spark = JobUtil.session("T4-cache")
    try {
      val ds = SmartCityData.byName(spark, a.str("dataset", "santander"), a.dbl("sf", 0.1))
      val dir = a.str("cache-dir", Files.createTempDirectory("capcache").toString)
      val cache = new CapCache(dir)
      val p = a.capParams(CapParams(psi = 50, maxSensors = 4))
      val rows = T4Cache.play(spark, ds, cache, Seq(
        ("first request (cold)", p),
        ("same parameters (warm)", p),
        ("changed psi (cold)", p.copy(psi = p.psi + 1)),
        ("changed psi again (warm)", p.copy(psi = p.psi + 1)),
      ))
      println(T4Cache.table(rows, s"T4 caching (${ds.name}, store=$dir)"))
    } finally spark.stop()
  }
}
