package repro.viz

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import java.time.format.DateTimeFormatter

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper

import repro.SparkSpec
import repro.core.{Cap, CapParams, Miscela}
import repro.core.TinyWorld
import repro.data.SmartCityData

class JsonExportSpec extends SparkSpec {

  private val mapper = new ObjectMapper()

  private val caps = Seq(
    Cap(Seq("temperature", "trafficVolume"), Seq("a", "b"), 42),
    Cap(Seq("light", "temperature"), Seq("b", "c"), 7),
  )

  test("capsJson lists every CAP with attributes, sensors and support") {
    val tree = mapper.readTree(JsonExport.capsJson(caps).render)
    assert(tree.isArray && tree.size() == 2)
    // Sorted by attribute set: light+temperature first.
    assert(tree.get(0).get("attributes").get(0).asText() == "light")
    assert(tree.get(1).get("support").asLong() == 42L)
    assert(tree.get(1).get("sensors").get(0).asText() == "a")
    assert(tree.get(0).get("capId").asInt() == 0)
  }

  test("sensorsGeoJson is a FeatureCollection with lon-lat order and cap back-references") {
    val locs = TinyWorld.locDf(spark, Seq(
      ("a", "temperature", 43.46, -3.80),
      ("b", "trafficVolume", 43.47, -3.81),
      ("c", "light", 43.48, -3.82),
      ("d", "humidity", 43.49, -3.83),
    ))
    val tree = mapper.readTree(JsonExport.sensorsGeoJson(locs, caps).render)
    assert(tree.get("type").asText() == "FeatureCollection")
    val features = tree.get("features")
    assert(features.size() == 4)
    val byId = (0 until 4).map(i => features.get(i).get("properties").get("id").asText() -> features.get(i)).toMap
    // GeoJSON coordinate order is (lon, lat).
    assert(byId("a").get("geometry").get("coordinates").get(0).asDouble() == -3.80)
    assert(byId("a").get("geometry").get("coordinates").get(1).asDouble() == 43.46)
    // b participates in both caps, d in none.
    assert(byId("b").get("properties").get("caps").size() == 2)
    assert(byId("d").get("properties").get("caps").size() == 0)
  }

  test("seriesJson emits per-sensor point lists with null gaps") {
    val data = TinyWorld.dataDf(spark, Map(
      ("a", "temperature") -> Seq(Some(1.0), None, Some(3.0)),
      ("b", "trafficVolume") -> Seq(Some(10.0), Some(20.0), Some(30.0)),
      ("zz", "light") -> Seq(Some(0.0), Some(0.0), Some(0.0)),
    ))
    val tree = mapper.readTree(JsonExport.seriesJson(data, caps.head).render)
    assert(tree.size() == 2) // only the CAP's sensors, not zz
    val a = tree.get(0)
    assert(a.get("sensor").asText() == "a")
    assert(a.get("points").size() == 3)
    assert(a.get("points").get(1).get(1).isNull)
    assert(a.get("points").get(2).get(1).asDouble() == 3.0)
    assert(a.get("points").get(0).get(0).asText().startsWith("2020-01-01"))
  }

  test("writeAll produces parseable files for a real mining run") {
    val ds = SmartCityData.covid19(spark)
    import org.apache.spark.sql.functions._
    val slice = ds.data.where(col("time") < lit("2020-02-01")) // keep it fast
    val params = CapParams(etaKm = 10.0, psi = 10, mu = 4, maxSensors = 3)
    val mined = Miscela.mine(spark, slice, ds.locations, params)
    val dir = Files.createTempDirectory("viz-spec").toString
    val files = JsonExport.writeAll(dir, mined, ds.locations, slice, maxSeries = 2)
    assert(files.exists(_.endsWith("caps.json")))
    assert(files.exists(_.endsWith("sensors.geojson")))
    files.foreach { f =>
      val tree = mapper.readTree(Files.readAllBytes(Paths.get(f)))
      assert(tree != null, s"unparseable: $f")
    }
    val capsTree = mapper.readTree(Files.readAllBytes(Paths.get(dir, "caps.json")))
    assert(capsTree.size() > 0, "expected CAPs in the covid slice")
    val geo = mapper.readTree(Files.readAllBytes(Paths.get(dir, "sensors.geojson")))
    assert(geo.get("features").size() == 12)
  }

  // -------------------------------------------------------------------
  // series-*.json from writeAll against a Spark-free reference
  // -------------------------------------------------------------------
  private val raw: Map[(String, String), Seq[Option[Double]]] = Map(
    ("a", "temperature") -> Seq(Some(1.0), None, Some(3.0), Some(2.5)),
    ("b", "trafficVolume") -> Seq(None, Some(20.0), Some(30.0), None),
    ("c", "light") -> Seq(Some(0.5), Some(0.25), None, Some(7.0)),
    ("d", "humidity") -> Seq(Some(60.0), Some(61.0), Some(62.0), Some(63.0)),
    ("zz", "sound") -> Seq(Some(0.0), Some(0.0), Some(0.0), Some(0.0)),
  )

  /** The series payload of each top CAP, built from `raw` without Spark:
    * the CAPs in capsJson order, stably re-sorted by support descending,
    * first `maxSeries`; per CAP its sensors in id order, each with its
    * (time, value) points in time order.
    */
  private def referenceSeries(caps: Seq[Cap], maxSeries: Int): Seq[Seq[(String, Seq[(String, Option[Double])])]] = {
    val fmt = DateTimeFormatter.ofPattern("yyyy-MM-dd HH:mm:ss")
    val byId = raw.map { case ((id, _), vs) =>
      id -> vs.zipWithIndex.map { case (v, i) => (TinyWorld.ts(i).toLocalDateTime.format(fmt), v) }
    }
    caps.sortBy(c => (c.attributes.mkString(","), c.sensors.mkString(","), c.support))
      .sortBy(-_.support).take(maxSeries)
      .map(c => c.sensors.sorted.map(id => id -> byId(id)))
  }

  private def readSeries(path: String): Seq[(String, Seq[(String, Option[Double])])] =
    mapper.readTree(Files.readAllBytes(Paths.get(path))).elements().asScala.toSeq.map { s =>
      s.get("sensor").asText() -> s.get("points").elements().asScala.toSeq.map { pt =>
        (pt.get(0).asText(), if (pt.get(1).isNull) None else Some(pt.get(1).asDouble()))
      }
    }

  private def checkSeries(caps: Seq[Cap], maxSeries: Int): Unit = {
    import spark.implicits._
    val data = TinyWorld.dataDf(spark, raw)
    val locs = TinyWorld.locDf(spark, raw.keys.toSeq.map { case (id, a) => (id, a, 43.46, -3.80) })
    val dir = Files.createTempDirectory("viz-series").toString
    val files = JsonExport.writeAll(dir, caps.toDS(), locs, data, maxSeries)
    val want = referenceSeries(caps, maxSeries)
    val series = (0 until want.size).map(i => Paths.get(dir, s"series-$i.json").toString)
    assert(files.filter(_.contains("series-")) == series)
    series.zip(want).foreach { case (f, w) => assert(readSeries(f) == w, f) }
    // The one-scan export renders each CAP exactly as seriesJson does.
    val tops = caps.sortBy(c => (c.attributes.mkString(","), c.sensors.mkString(","), c.support))
      .sortBy(-_.support).take(maxSeries)
    series.zip(tops).foreach { case (f, c) =>
      assert(new String(Files.readAllBytes(Paths.get(f)), StandardCharsets.UTF_8) == JsonExport.seriesJson(data, c).render)
    }
  }

  test("writeAll series of CAPs that share sensors match the reference, nulls included") {
    checkSeries(Seq(
      Cap(Seq("temperature", "trafficVolume"), Seq("a", "b"), 42),
      Cap(Seq("light", "trafficVolume"), Seq("b", "c"), 7),
      Cap(Seq("humidity", "light", "temperature"), Seq("a", "c", "d"), 42),
      Cap(Seq("humidity", "light"), Seq("c", "d"), 3),
    ), maxSeries = 3)
  }

  test("writeAll with fewer CAPs than maxSeries writes one series per CAP") {
    checkSeries(Seq(
      Cap(Seq("light", "temperature"), Seq("a", "c"), 5),
      Cap(Seq("humidity", "temperature"), Seq("a", "d"), 9),
    ), maxSeries = 3)
    checkSeries(Nil, maxSeries = 3)
  }
}
