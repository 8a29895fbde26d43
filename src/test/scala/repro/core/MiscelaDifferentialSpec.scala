package repro.core

import scala.util.Random

import repro.SparkSpec
import repro.core.ReferencePipeline.{Location, Record}

/** `Miscela.mine` ≡ [[ReferencePipeline]] on small generated worlds.
  *
  * Values sit on a 0.25 grid and ε never does, so at δ = 0 no step lies on
  * the ε boundary and both sides see the same doubles. At δ > 0 both sides
  * smooth the same forward-filled series with the same function.
  */
class MiscelaDifferentialSpec extends SparkSpec {

  private val Attributes = Vector("temperature", "light", "humidity", "trafficVolume")

  /** A world: sensors in a few clusters, each following one of a few shared
    * jump processes plus jumps of its own; some values null, some rows
    * missing. A `ragged` world also gives every second sensor in turn a run
    * of leading nulls, a run of trailing nulls, or rows at only every
    * second or third grid timestamp.
    */
  private def world(r: Random, sites: Seq[(Double, Double)], nT: Int, ragged: Boolean = false): (Seq[Record], Seq[Location]) = {
    val factors = Vector.fill(3)(Vector.fill(nT)(if (r.nextDouble() < 0.3) (r.nextInt(9) - 4) * 0.5 else 0.0))
    val sensors = sites.zipWithIndex.map { case ((lat, lon), i) =>
      Location(f"s$i%02d", Attributes(r.nextInt(Attributes.size)), lat, lon)
    }
    val records = sensors.zipWithIndex.flatMap { case (s, i) =>
      val f = factors(r.nextInt(factors.size))
      var v = r.nextInt(40) * 0.25
      val shape = if (ragged) i % 6 else 0
      val (lead, trail) = (if (shape == 1) 1 + r.nextInt(nT / 3) else 0, if (shape == 3) 1 + r.nextInt(nT / 3) else 0)
      val stride = if (shape == 5) 2 + r.nextInt(2) else 1
      (0 until nT).flatMap { t =>
        v += f(t) + (if (r.nextDouble() < 0.1) (r.nextInt(7) - 3) * 0.25 else 0.0)
        if (t % stride != 0 || r.nextDouble() < 0.04) None
        else Some(Record(s.id, s.attribute, t.toLong,
          if (t < lead || t >= nT - trail || r.nextDouble() < 0.08) None else Some(v)))
      }
    }
    (records, sensors)
  }

  private def canon(caps: Seq[Cap]): Seq[(Seq[String], Seq[String], Long)] =
    caps.map(c => (c.attributes, c.sensors, c.support)).sortBy(_.toString)

  private def assertSame(records: Seq[Record], locations: Seq[Location], p: CapParams): Int = {
    import spark.implicits._
    val data = records.map(x => (x.id, x.attribute, TinyWorld.ts(x.time.toInt), x.value))
      .toDF("id", "attribute", "time", "data")
    val locs = locations.map(l => (l.id, l.attribute, l.lat, l.lon)).toDF("id", "attribute", "lat", "lon")
    val got = canon(Miscela.mine(spark, data, locs, p).collect().toSeq)
    val want = canon(ReferencePipeline.caps(records, locations, p))
    assert(got == want, s"params $p")
    want.size
  }

  for (seed <- 1 to 6) {
    test(s"mine ≡ reference on a random world (seed $seed)") {
      val r = new Random(seed)
      val centres = Seq.fill(2 + r.nextInt(2))((43.0 + r.nextDouble() * 0.2, -4.0 + r.nextDouble() * 0.2))
      val sites = Seq.fill(8 + r.nextInt(7)) {
        val (lat, lon) = centres(r.nextInt(centres.size))
        (lat + r.nextDouble() * 0.01, lon + r.nextDouble() * 0.01)
      }
      val (records, locations) = world(r, sites, 24 + r.nextInt(16))
      val p = CapParams(
        epsilon = Seq(0.0, 0.6, 1.1)(r.nextInt(3)),
        etaKm = Seq(0.3, 0.8, 2.0)(r.nextInt(3)),
        mu = 2 + r.nextInt(2),
        psi = 1 + r.nextInt(3),
        signPolicy = if (r.nextBoolean()) SignPolicy.SameSign else SignPolicy.AnySign,
        maxSensors = 3 + r.nextInt(2),
        allowSingleAttribute = r.nextInt(4) == 0,
      )
      assertSame(records, locations, p)
    }
  }

  for (seed <- 1 to 6) {
    test(s"mine ≡ reference at delta > 0 on a ragged world (seed $seed)") {
      val r = new Random(100 + seed)
      val centre = (43.0 + r.nextDouble() * 0.2, -4.0 + r.nextDouble() * 0.2)
      val sites = Seq.fill(10 + r.nextInt(5))((centre._1 + r.nextDouble() * 0.01, centre._2 + r.nextDouble() * 0.01))
      val (records, locations) = world(r, sites, 30 + r.nextInt(16), ragged = true)
      val p = CapParams(
        epsilon = Seq(0.0, 0.35, 0.6)(r.nextInt(3)),
        etaKm = Seq(0.5, 2.0)(r.nextInt(2)),
        mu = 2 + r.nextInt(2),
        psi = 1 + r.nextInt(3),
        delta = Seq(0.3, 0.8, 1.5)(r.nextInt(3)),
        signPolicy = if (r.nextBoolean()) SignPolicy.SameSign else SignPolicy.AnySign,
        maxSensors = 3,
      )
      assert(assertSame(records, locations, p) > 0, s"no CAPs to compare under $p")
    }
  }

  test("mine ≡ reference on a 60-sensor road, one component 59 hops long") {
    // 0.3 km apart under eta = 0.5 km: only consecutive sensors are adjacent.
    val r = new Random(99)
    val kmDeg = 1.0 / (repro.geo.Haversine.EarthRadiusKm * math.Pi / 180)
    val sites = (0 until 60).map(i => (43.0 + i * 0.3 * kmDeg, -3.8))
    val (records, locations) = world(r, sites, 30)
    val p = CapParams(epsilon = 0.6, etaKm = 0.5, mu = 3, psi = 2, maxSensors = 3)
    val (_, comps) = Miscela.spatialComponents(spark, TinyWorld.locDf(spark,
      locations.map(l => (l.id, l.attribute, l.lat, l.lon))), p)
    assert(comps.collect().map(_.getString(1)).toSet == Set("s00"))
    assert(assertSame(records, locations, p) > 0)
  }
}
