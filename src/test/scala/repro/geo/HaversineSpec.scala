package repro.geo

import scala.util.Random

import repro.{Oracle, SparkSpec}

class HaversineSpec extends SparkSpec {

  test("zero distance between identical points") {
    assert(Haversine.km(43.46, -3.80, 43.46, -3.80) == 0.0)
  }

  test("one degree of latitude is ~111.2 km") {
    val d = Haversine.km(0.0, 0.0, 1.0, 0.0)
    assert(math.abs(d - 111.2) < 0.5, s"got $d")
  }

  test("one degree of longitude at 60N is ~55.6 km (cos factor)") {
    val d = Haversine.km(60.0, 0.0, 60.0, 1.0)
    assert(math.abs(d - 55.6) < 0.5, s"got $d")
  }

  test("Shanghai to Guangzhou is ~1200 km") {
    val d = Haversine.km(31.23, 121.47, 23.13, 113.26)
    assert(d > 1100 && d < 1300, s"got $d")
  }

  test("Santander city block is a few hundred metres") {
    val d = Haversine.km(43.46192, -3.80176, 43.46212, -3.79979)
    assert(d > 0.1 && d < 0.3, s"got $d")
  }

  test("antipodal points are ~half the circumference") {
    val d = Haversine.km(0.0, 0.0, 0.0, 180.0)
    assert(math.abs(d - math.Pi * Haversine.EarthRadiusKm) < 1.0, s"got $d")
  }

  private def randPt(r: Random): (Double, Double) = (r.nextDouble() * 170 - 85, r.nextDouble() * 360 - 180)

  for (seed <- 1 to 5) {
    test(s"property: symmetric, non-negative, bounded (seed $seed)") {
      val r = new Random(seed)
      (1 to 200).foreach { _ =>
        val (a, b) = randPt(r); val (c, d) = randPt(r)
        val x = Haversine.km(a, b, c, d)
        assert(math.abs(x - Haversine.km(c, d, a, b)) < 1e-9)
        assert(x >= 0 && x <= math.Pi * Haversine.EarthRadiusKm + 1e-6)
      }
    }

    test(s"property: triangle inequality via a third point (seed $seed)") {
      val r = new Random(seed + 100)
      (1 to 200).foreach { _ =>
        val (a, b) = randPt(r); val (c, d) = randPt(r); val (e, f) = randPt(r)
        assert(Haversine.km(a, b, e, f) <= Haversine.km(a, b, c, d) + Haversine.km(c, d, e, f) + 1e-9)
      }
    }
  }

  test("km over collected rows agrees with the spherical law of cosines") {
    import spark.implicits._
    val pts = Seq((43.46, -3.80, 43.47, -3.81), (31.23, 121.47, 23.13, 113.26), (0.0, 0.0, 0.0, 0.0))
    val got = pts.toDF("lat1", "lon1", "lat2", "lon2").collect()
      .map(r => Haversine.km(r.getDouble(0), r.getDouble(1), r.getDouble(2), r.getDouble(3)))
    pts.zip(got).foreach { case ((a, b, c, d), km) =>
      val (p1, p2, dl) = (math.toRadians(a), math.toRadians(c), math.toRadians(d - b))
      val cos = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
      val want = Haversine.EarthRadiusKm * math.acos(math.max(-1.0, math.min(1.0, cos)))
      assert(math.abs(km - want) < 1e-3, s"$km vs $want")
    }
  }

  test("oracle: km over collected rows agrees with the formula in DuckDB SQL") {
    import spark.implicits._
    val pts = Seq(
      ("p1", 43.46, -3.80, 43.47, -3.81),
      ("p2", 31.23, 121.47, 23.13, 113.26),
      ("p3", 20.0, 80.0, 23.5, 80.0),
      ("p4", -10.0, 100.0, -10.0, 101.0),
    ).toDF("name", "lat1", "lon1", "lat2", "lon2")
    val scalaDf = pts.collect().toSeq.map { r =>
      val d = Haversine.km(r.getDouble(1), r.getDouble(2), r.getDouble(3), r.getDouble(4))
      (r.getString(0), BigDecimal(d).setScale(4, BigDecimal.RoundingMode.HALF_UP).toDouble)
    }.toDF("name", "d")
    Oracle.assertEquivalent(
      scalaDf,
      """SELECT name,
        |  round(2 * 6371.0088 * asin(least(1.0, sqrt(
        |    pow(sin(radians(CAST(lat2 AS DOUBLE) - CAST(lat1 AS DOUBLE)) / 2), 2) +
        |    cos(radians(CAST(lat1 AS DOUBLE))) * cos(radians(CAST(lat2 AS DOUBLE))) *
        |    pow(sin(radians(CAST(lon2 AS DOUBLE) - CAST(lon1 AS DOUBLE)) / 2), 2)
        |  ))), 4) AS d
        |FROM pts""".stripMargin,
      "pts" -> pts,
    )
  }
}
