package repro.cache

import java.nio.file.{Files, Paths}

import repro.SparkSpec
import repro.core.{Cap, CapParams}

class CapCacheSpec extends SparkSpec {

  private def newCache(): (CapCache, String) = {
    val dir = Files.createTempDirectory("capcache-spec").toString
    (new CapCache(dir), dir)
  }

  private def someCaps(n: Int): org.apache.spark.sql.Dataset[Cap] = {
    import spark.implicits._
    (0 until n).map(i => Cap(Seq("a", "b"), Seq(s"s$i", s"s${i + 1}"), 10L + i)).toDS()
  }

  private val p = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 10)

  test("empty cache misses") {
    val (cache, _) = newCache()
    assert(!cache.contains("santander", p))
    assert(cache.get(spark, "santander", p).isEmpty)
  }

  test("put then get round-trips the CAP set") {
    val (cache, _) = newCache()
    cache.put("santander", p, someCaps(5))
    assert(cache.contains("santander", p))
    val got = cache.get(spark, "santander", p).get.collect().sortBy(_.support)
    assert(got.length == 5)
    assert(got(0) == Cap(Seq("a", "b"), Seq("s0", "s1"), 10L))
  }

  test("different parameters are different entries") {
    val (cache, _) = newCache()
    cache.put("santander", p, someCaps(2))
    assert(!cache.contains("santander", p.copy(psi = 11)))
    assert(!cache.contains("santander", p.copy(epsilon = 1.5)))
    assert(!cache.contains("santander", p.copy(signPolicy = repro.core.SignPolicy.AnySign)))
    assert(!cache.contains("china6", p))
  }

  test("getOrCompute: second identical request is a hit and skips compute") {
    val (cache, _) = newCache()
    var computions = 0
    def compute() = { computions += 1; someCaps(3) }
    val (r1, hit1) = cache.getOrCompute(spark, "santander", p)(compute())
    assert(!hit1 && r1.count() == 3 && computions == 1)
    val (r2, hit2) = cache.getOrCompute(spark, "santander", p)(compute())
    assert(hit2 && r2.count() == 3 && computions == 1)
    val (_, hit3) = cache.getOrCompute(spark, "santander", p.copy(mu = 2))(compute())
    assert(!hit3 && computions == 2)
  }

  test("entries survive a new CapCache instance over the same directory") {
    val (cache, dir) = newCache()
    cache.put("covid19", p, someCaps(1))
    val reopened = new CapCache(dir)
    assert(reopened.contains("covid19", p))
    assert(reopened.get(spark, "covid19", p).get.count() == 1)
  }

  test("put overwrites an existing entry") {
    val (cache, _) = newCache()
    cache.put("x", p, someCaps(2))
    cache.put("x", p, someCaps(7))
    assert(cache.get(spark, "x", p).get.count() == 7)
  }

  test("an interrupted put leaves no entry and no stray directory") {
    import spark.implicits._
    val (cache, dir) = newCache()
    cache.put("x", p.copy(psi = 11), someCaps(2))
    // The mining job fails part-way through the write, as a crash would.
    val failing = someCaps(50).repartition(4).map { c =>
      if (c.support == 40L) throw new IllegalStateException("interrupted") else c
    }
    intercept[Exception](cache.put("x", p, failing))
    assert(!cache.contains("x", p) && cache.get(spark, "x", p).isEmpty)
    // Over an existing entry, the old entry survives intact.
    cache.put("x", p, someCaps(3))
    intercept[Exception](cache.put("x", p, failing))
    assert(cache.get(spark, "x", p).get.count() == 3)
    // Only the two complete entries are left under the cache root.
    assert(Files.list(Paths.get(dir)).count() == 2)
  }

  test("an empty CAP result is cached too (a negative result is a result)") {
    val (cache, _) = newCache()
    cache.put("x", p, someCaps(0))
    assert(cache.contains("x", p))
    assert(cache.get(spark, "x", p).get.count() == 0)
  }

  test("epsilons that agree to six decimals are three distinct entries") {
    val (cache, dir) = newCache()
    val ps = Seq(0.0, 1e-7, 4e-7).map(e => p.copy(epsilon = e))
    ps.zipWithIndex.foreach { case (q, i) => cache.put("santander", q, someCaps(i + 1)) }
    assert(Files.list(Paths.get(dir)).count() == 3)
    ps.zipWithIndex.foreach { case (q, i) => assert(cache.get(spark, "santander", q).get.count() == i + 1) }
  }

  test("cacheKey covers every parameter") {
    val keys = Seq(
      p, p.copy(epsilon = 2.0), p.copy(etaKm = 1.0), p.copy(mu = 2), p.copy(psi = 11),
      p.copy(delta = 0.5), p.copy(signPolicy = repro.core.SignPolicy.AnySign),
      p.copy(maxSensors = 4), p.copy(allowSingleAttribute = true),
    ).map(_.cacheKey)
    assert(keys.distinct.size == keys.size)
  }
}
