package repro.core

import repro.SparkSpec

/** Pipeline-level tests of [[Miscela]] on hand-built micro-datasets. */
class MiscelaSpec extends SparkSpec {
  import TinyWorld._

  private val n = 40
  private val jumpsA = Map(3 -> 10.0, 8 -> -10.0, 15 -> 10.0, 22 -> 10.0, 30 -> -10.0)
  private val jumpsB = Map(5 -> 10.0, 18 -> -10.0)

  private def world() = {
    val data = dataDf(spark, Map(
      // Cluster 1 (Santander-ish): temp + traffic co-evolve via jumpsA.
      ("a1", "temperature") -> stepSeries(n, 10, jumpsA),
      ("a2", "trafficVolume") -> stepSeries(n, 100, jumpsA),
      ("a3", "humidity") -> stepSeries(n, 60, jumpsB),
      // Cluster 2, far away: light + temp co-evolve via jumpsB.
      ("b1", "light") -> stepSeries(n, 300, jumpsB),
      ("b2", "temperature") -> stepSeries(n, 12, jumpsB),
    ))
    val locs = locDf(spark, Seq(
      ("a1", "temperature", 43.4600, -3.8000),
      ("a2", "trafficVolume", 43.4608, -3.8001),
      ("a3", "humidity", 43.4604, -3.8004),
      ("b1", "light", 43.5600, -3.9000),
      ("b2", "temperature", 43.5608, -3.9001),
    ))
    (data, locs)
  }

  test("evolvingEvents detects exactly the planted jumps") {
    val (data, _) = world()
    val params = CapParams(epsilon = 1.0, psi = 1)
    val events = Miscela.evolvingEvents(data, params)
      .collect().map(r => (r.getString(0), r.getInt(1), r.getInt(2))).toSet
    val expectA = jumpsA.map { case (t, d) => ("a1", t, if (d > 0) 1 else -1) }.toSet
    assert(events.filter(_._1 == "a1") == expectA)
    assert(events.filter(_._1 == "b1").map(_._2) == jumpsB.keySet)
  }

  test("spatialComponents separates the two clusters") {
    val (_, locs) = world()
    val (_, comps) = Miscela.spatialComponents(spark, locs, CapParams(etaKm = 0.5))
    val byComp = comps.collect().map(r => (r.getString(0), r.getString(1)))
      .groupBy(_._2).values.map(_.map(_._1).toSet).toSet
    assert(byComp == Set(Set("a1", "a2", "a3"), Set("b1", "b2")))
  }

  test("spatialComponents rejects a null coordinate, naming the sensor") {
    import spark.implicits._
    val locs = Seq(("ok", "temperature", Some(43.46), Some(-3.80)), ("gap", "light", None, Some(-3.80)))
      .toDF("id", "attribute", "lat", "lon")
    val e = intercept[IllegalArgumentException](Miscela.spatialComponents(spark, locs, CapParams()))
    assert(e.getMessage.contains("'gap'"))
  }

  test("mine discovers one planted pattern per cluster, nothing across clusters") {
    val (data, locs) = world()
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 2, maxSensors = 3)
    val caps = Miscela.mine(spark, data, locs, params).collect().toSeq
    assert(caps.exists(c => c.sensors == Seq("a1", "a2") &&
      c.attributes == Seq("temperature", "trafficVolume") && c.support == jumpsA.size))
    assert(caps.exists(c => c.sensors == Seq("b1", "b2") &&
      c.attributes == Seq("light", "temperature") && c.support == jumpsB.size))
    // a3 co-evolves with b-cluster (same jumpsB) but is spatially apart.
    assert(!caps.exists(c => c.sensors.exists(_.startsWith("a")) && c.sensors.exists(_.startsWith("b"))))
  }

  test("mine with useNaive returns identical results") {
    val (data, locs) = world()
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 2, maxSensors = 3)
    def canon(caps: Seq[Cap]) = caps.map(c => (c.attributes, c.sensors, c.support))
      .sortBy(_.toString)
    val fast = canon(Miscela.mine(spark, data, locs, params).collect().toSeq)
    val slow = canon(Miscela.mine(spark, data, locs, params, useNaive = true).collect().toSeq)
    assert(fast == slow && fast.nonEmpty)
  }

  test("sensors with fewer than psi events are pruned before the search") {
    val (data, locs) = world()
    // jumpsB has 2 events; psi = 3 excludes the b-cluster and a3 entirely.
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 3, maxSensors = 3)
    val caps = Miscela.mine(spark, data, locs, params).collect().toSeq
    assert(caps.nonEmpty)
    assert(caps.forall(_.sensors.forall(s => s == "a1" || s == "a2")))
  }

  test("nulls are forward-filled, shifting the perceived jump") {
    // A jump at t=5 hidden behind a null at t=5 surfaces at t=6.
    val vs: Seq[Option[Double]] = Seq(Some(1.0), Some(1.0), Some(1.0), Some(1.0), Some(1.0),
      None, Some(11.0), Some(11.0), Some(11.0), Some(11.0))
    val other: Seq[Option[Double]] = Seq(Some(5.0), Some(5.0), Some(5.0), Some(5.0), Some(5.0),
      Some(5.0), Some(15.0), Some(15.0), Some(15.0), Some(15.0))
    val data = dataDf(spark, Map(("x", "temperature") -> vs, ("y", "trafficVolume") -> other))
    val locs = locDf(spark, Seq(("x", "temperature", 0.0, 0.0), ("y", "trafficVolume", 0.0001, 0.0)))
    val params = CapParams(epsilon = 1.0, etaKm = 1.0, psi = 1, maxSensors = 2)
    val caps = Miscela.mine(spark, data, locs, params).collect().toSeq
    assert(caps.exists(c => c.sensors == Seq("x", "y") && c.support == 1))
  }

  test("empty CAP result when nothing co-evolves") {
    val data = dataDf(spark, Map(
      ("x", "a1") -> stepSeries(10, 0, Map(2 -> 10.0)),
      ("y", "a2") -> stepSeries(10, 0, Map(7 -> 10.0)),
    ))
    val locs = locDf(spark, Seq(("x", "a1", 0.0, 0.0), ("y", "a2", 0.0001, 0.0)))
    val caps = Miscela.mine(spark, data, locs, CapParams(etaKm = 1.0, psi = 1)).collect()
    assert(caps.isEmpty)
  }

  test("searchComponent ignores edges touching pruned sensors and self-loops") {
    val nT = 16
    val s = Array(
      CompSensor("c", "a", "t1", Seq(1, 2), Nil),
      CompSensor("c", "b", "t2", Seq(1, 2), Nil),
    )
    val e = Array(
      CompEdge("c", "a", "b"),
      CompEdge("c", "a", "ghost"), // pruned sensor
      CompEdge("c", "a", "a"),     // degenerate
    )
    val caps = Miscela.searchAssembled(s, e, nT, CapParams(psi = 2, maxSensors = 2), useNaive = false)
    assert(caps == Seq(Cap(Seq("t1", "t2"), Seq("a", "b"), 2)))
  }

  test("assembleComponents groups sensors and edges consistently with mine") {
    val (data, locs) = world()
    val params = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 2, maxSensors = 3)
    val comps = Miscela.assembleComponents(spark, data, locs, params)
    assert(comps.size == 2)
    val viaAssembly = comps.flatMap { case (s, e, nT) =>
      Miscela.searchAssembled(s, e, nT, params, useNaive = false)
    }.map(c => (c.attributes, c.sensors, c.support)).sortBy(_.toString)
    val viaMine = Miscela.mine(spark, data, locs, params).collect().toSeq
      .map(c => (c.attributes, c.sensors, c.support)).sortBy(_.toString)
    assert(viaAssembly == viaMine)
  }

  test("delta smoothing suppresses sub-delta wiggles end to end") {
    // Wiggles of ±2 would evolve at epsilon=1, but delta=3 smoothing
    // flattens them; the 10-step survives.
    val wiggly: Seq[Option[Double]] =
      Seq(0.0, 2.0, 0.0, 2.0, 0.0, 12.0, 14.0, 12.0, 14.0, 12.0).map(Some(_))
    val partner: Seq[Option[Double]] =
      Seq(0.0, 0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0, 10.0).map(Some(_))
    val data = dataDf(spark, Map(("w", "temperature") -> wiggly, ("p", "trafficVolume") -> partner))
    val locs = locDf(spark, Seq(("w", "temperature", 0.0, 0.0), ("p", "trafficVolume", 0.0001, 0.0)))
    val smoothedParams = CapParams(epsilon = 1.0, etaKm = 1.0, psi = 1, delta = 3.0, maxSensors = 2)
    val caps = Miscela.mine(spark, data, locs, smoothedParams).collect().toSeq
    assert(caps.exists(c => c.sensors == Seq("p", "w")))
    caps.foreach(c => assert(c.support <= 2, s"smoothing should leave at most the step, got $c"))
  }
}
