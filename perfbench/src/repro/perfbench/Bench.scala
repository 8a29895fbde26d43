package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Random, Success, Try}

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.{Dataset, Encoders, SparkSession}

import repro.cache.CapCache
import repro.core.{Cap, CapParams, Miscela}
import repro.data.SmartCityDataset
import repro.ingest.{ChunkedUpload, CsvIngest}
import repro.viz.JsonExport

/** The MISCELA-V request path under one closed-loop analyst.
  *
  * Set-up: start Spark, send warm-up requests on the workload's files
  * under a dataset name of their own, upload the files (chunked split,
  * reassemble, `CsvIngest.read` with validation) and prime the cache.
  * Timed phase: one request after another, each
  * `CapCache.getOrCompute { Miscela.mine }` followed by
  * `JsonExport.writeAll`, until `--seconds` have passed. Afterwards every
  * response's `caps.json` is checked against [[Reference]].
  *
  * Untraced runs print the end-to-end metrics; a run with `--trace 1`
  * instead wraps each layer's entry point in a span of its own and prints
  * the per-layer metrics.
  */
object Bench {

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      work: Path,
      inputs: Path,
      traceDir: Path,
      cores: Int,
      driverMemory: String,
  )

  /** Upload name of a generated dataset, unique per (generator, sf): the
    * cache keys on the dataset name alone.
    */
  def datasetName(generator: String, sf: Double): String = s"$generator-sf$sf"

  /** One generated dataset: its upload name and its source CSV files. */
  final case class Input(name: String, dir: Path) {
    def data: Path = dir.resolve("data.csv")
    def location: Path = dir.resolve("location.csv")
    def attribute: Path = dir.resolve("attribute.csv")
  }

  /** What one request produced. */
  final case class Response(params: CapParams, hit: Boolean, ms: Double, out: Path, files: Seq[String])

  val ShufflePartitions = 64
  val Uploads = 3

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val workload = Workload.byName(args.workload)
    val spark = SparkSession.builder()
      .master(s"local[${args.cores}]")
      .appName(s"perfbench-${workload.name}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.session.timeZone", "UTC")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", args.work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", args.work.resolve("warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val result =
      try new Run(spark, args, workload).execute()
      finally spark.stop()
    println(result)
  }

  private def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.stripPrefix("--") -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      Paths.get(need("work")), Paths.get(need("inputs")), Paths.get(need("trace-dir")), need("cores").toInt,
      need("driver-memory"))
  }

  /** One benchmark run in one JVM. */
  private final class Run(spark: SparkSession, args: Args, workload: Workload) {
    private val tracer = if (args.trace) Some(new Tracer(spark)) else None
    private val cache = new CapCache(args.work.resolve("cache").toString)
    private val rnd = new Random(args.seed)
    private var requestSeq = 0
    // Each cache entry directory, by the key of the request that created it.
    private val entryDirs = mutable.Map.empty[String, Path]

    private def span[A](name: String, request: Int)(body: => A): A = tracer match {
      case Some(t) => t.span(name, request)(body)
      case None    => body
    }

    private def count(key: String, value: Double): Unit = tracer.foreach(_.count(key, value))

    def execute(): String = {
      def mark(what: String): Unit =
        System.err.println(f"perfbench: $what done at ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.1f s")
      mark("session")
      val name = datasetName(workload.generator, workload.sf)
      val main = Input(name, args.inputs.resolve(name))
      val reference = new Reference(main.data, main.location)
      // The warm-up dataset holds the same rows under a name of its own, so
      // no warm-up result can ever be served to a timed request. Reading it
      // with validation also warms the upload path before upload_s.
      warmUp(Input(main.name + "-warmup", main.dir), reference)
      mark("warm-up")

      // The same files are uploaded Uploads times, each into fresh chunk
      // directories; upload_s is the median and the last upload is served.
      // An untimed upload goes first: the first upload after the warm-up
      // requests can be the slowest.
      upload(main, "main-0")
      val uploads = (1 to Uploads).map { i =>
        val start = System.nanoTime()
        val ds = span("ingest", -1) {
          val (d, chunks) = upload(main, s"main-$i")
          count("ingest.chunks", chunks.toDouble)
          if (tracer.isDefined) count("ingest.rows", d.data.count().toDouble)
          d
        }
        (ds, (System.nanoTime() - start) / 1e9)
      }
      val uploadS = median(uploads.map(_._2))
      System.err.println(f"perfbench: upload s ${uploads.map(u => f"${u._2}%.2f").mkString(" ")}")
      val ds = uploads.last._1
      val badUploads = uploads.count { case (d, _) =>
        d.data.count() != reference.records || d.locations.count() != reference.sensors
      }

      // Primed entries are stored from the reference CAPs rather than by
      // real misses, which would cost more set-up time than a run can spare.
      val prime = workload.prime(rnd)
      prime.foreach(p => tracked(ds.name, p)(cache.put(ds.name, p, capsDataset(reference.caps(p)))))
      val plan = workload.requests(rnd, prime)

      val setupS = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
      val phaseStart = System.nanoTime()
      val deadline = phaseStart + args.seconds * 1000000000L
      val responses = mutable.ArrayBuffer.empty[Either[(CapParams, Throwable), Response]]
      while (System.nanoTime() < deadline) {
        val p = plan.next()
        val out = mkOut()
        responses += (try Right(if (tracer.isDefined) tracedRequest(ds, p, out) else plainRequest(ds, p, out))
          catch { case e: Exception => Left((p, e)) })
      }
      val phaseMs = (System.nanoTime() - phaseStart) / 1e6
      System.err.println(f"perfbench: timed request ms ${responses.collect { case Right(r) => f"${r.ms}%.0f" }.mkString(" ")}")

      // Checks, outside the timed phase.
      val expected = mutable.Map.empty[CapParams, Vector[CanonCap]]
      val capCounts = mutable.ArrayBuffer.empty[Int]
      // One entry per failed upload or request.
      val failures = mutable.ArrayBuffer.empty[String]
      (1 to badUploads).foreach(_ => failures += s"upload of ${main.name}: row or sensor count differs from the files")
      responses.foreach {
        case Left((p, e)) => failures += s"request ${p.cacheKey} threw ${e.getClass.getSimpleName}: ${e.getMessage}"
        case Right(r) =>
          val want = expected.getOrElseUpdate(r.params, CanonCap.sorted(reference.caps(r.params).map(CanonCap.of)))
          Try(CanonCap.sorted(CapsJson.read(r.out.resolve("caps.json")))) match {
            case Failure(e) => failures += s"request ${r.params.cacheKey}: unreadable caps.json: ${e.getMessage}"
            case Success(got) =>
              capCounts += got.size
              if (got != want)
                failures += s"request ${r.params.cacheKey}: caps.json has ${got.size} CAPs, reference has ${want.size}" +
                  s" (${got.diff(want).size} unexpected, ${want.diff(got).size} missing)"
              else if (r.files.size != 2 + math.min(3, want.size))
                failures += s"request ${r.params.cacheKey}: export wrote ${r.files.size} files"
          }
      }
      failures.foreach(f => System.err.println(s"perfbench: FAILED $f"))

      val ok = responses.toSeq.collect { case Right(r) => r }
      val attempted = responses.size + Uploads
      val env = Map(
        "workload" -> workload.name, "seed" -> args.seed.toString, "nproc" -> args.cores.toString,
        "spark_master" -> spark.sparkContext.master, "spark_version" -> spark.version,
        "shuffle_partitions" -> ShufflePartitions.toString, "driver_memory" -> args.driverMemory,
        "jdk" -> System.getProperty("java.version"), "dataset" -> main.name,
        "sensors" -> reference.sensors.toString, "records" -> reference.records.toString,
        "caps_per_response" -> capCounts.distinct.sorted.mkString("/"),
        "requests" -> ok.size.toString, "cache_hits" -> ok.count(_.hit).toString,
      )
      println("perfbench env " + jsonObj(env.map { case (k, v) => k -> quote(v) }))

      var traceStable = true
      val metrics: Seq[(String, Double, String)] = tracer match {
        case None =>
          Seq(
            ("setup_s", setupS, "s"),
            ("upload_s", uploadS, "s"),
            ("request_p50_ms", median(ok.map(_.ms)), "ms"),
            ("requests_per_min", ok.size / phaseMs * 60000.0, "1/min"),
            ("peak_rss_mb", peakRssMb(), "MB"),
          )
        case Some(t) =>
          val spans = t.finish()
          traceStable = compareWithFirstTrace(spans)
          LayerMetrics(spans)
      }
      val metricsJson = jsonObj(metrics.map { case (k, v, u) => k -> jsonObj(Seq("value" -> num(v), "unit" -> quote(u))) })
      jsonObj(Seq(
        "correct" -> (failures.isEmpty && ok.nonEmpty && traceStable).toString,
        "attempted" -> attempted.toString,
        "failed" -> failures.size.toString,
        "metrics" -> metricsJson,
      ))
    }

    // ---------------------------------------------------------------
    // Set-up
    // ---------------------------------------------------------------

    /** The upload path: split `data.csv` into chunks, reassemble them on
      * the server side, then read and validate. Returns the dataset and
      * the number of chunks.
      */
    private def upload(in: Input, label: String): (SmartCityDataset, Int) = {
      val base = args.work.resolve(s"upload-$label")
      val chunks = ChunkedUpload.split(in.data.toString, base.resolve("chunks").toString)
      val data = ChunkedUpload.reassemble(chunks, base.resolve("data.csv").toString)
      val ds = CsvIngest.read(spark, in.name, data, in.location.toString, in.attribute.toString)
      (ds, chunks.size)
    }

    /** Warm-up requests on the warm-up dataset. A warm workload's warm-up
      * entry is stored from the reference CAPs: a warm-up miss would
      * cost as much as a primed entry.
      */
    private def warmUp(in: Input, reference: Reference): Unit = {
      val ds = CsvIngest.read(spark, in.name, in.data.toString, in.location.toString, in.attribute.toString)
      if (workload.revisit) {
        val p = workload.warmUp.head
        cache.put(ds.name, p, capsDataset(reference.caps(p)))
      }
      val done = workload.warmUp.map(p => plainRequest(ds, p, mkOut()))
      System.err.println(s"perfbench: warm-up request ms ${done.map(r => f"${r.ms}%.0f").mkString(" ")}" +
        s", CAPs ${done.map(r => CapsJson.read(r.out.resolve("caps.json")).size).mkString(" ")}")
    }

    private def mkOut(): Path = {
      requestSeq += 1
      args.work.resolve(f"out/req-$requestSeq%04d")
    }

    // ---------------------------------------------------------------
    // Requests
    // ---------------------------------------------------------------

    private def getOrCompute(ds: SmartCityDataset, p: CapParams): (Dataset[Cap], Boolean) =
      tracked(ds.name, p)(cache.getOrCompute(spark, ds.name, p)(Miscela.mine(spark, ds.data, ds.locations, p)))

    /** Runs `body`; a traced run remembers the cache entry directory it
      * created.
      */
    private def tracked[A](name: String, p: CapParams)(body: => A): A =
      if (tracer.isEmpty) body
      else {
        val before = entries()
        val r = body
        (entries() -- before).headOption.foreach(dir => entryDirs(name + "|" + p.cacheKey) = dir)
        r
      }

    private def capsDataset(caps: Seq[Cap]): Dataset[Cap] = spark.createDataset(caps)(Encoders.product[Cap])

    private def entries(): Set[Path] = {
      val root = args.work.resolve("cache")
      if (!Files.isDirectory(root)) Set.empty
      else Files.list(root).iterator().asScala.toSet
    }

    /** The request as `MineCapsJob` runs it. */
    private def plainRequest(ds: SmartCityDataset, p: CapParams, out: Path): Response = {
      val start = System.nanoTime()
      val (caps, hit) = getOrCompute(ds, p)
      val files = JsonExport.writeAll(out.toString, caps, ds.locations, ds.data)
      Response(p, hit, (System.nanoTime() - start) / 1e6, out, files)
    }

    /** The same request with each layer's entry point called and forced in
      * a span of its own, in pipeline order, then the real request.
      */
    private def tracedRequest(ds: SmartCityDataset, p: CapParams, out: Path): Response = {
      val id = requestSeq
      val t = tracer.get
      t.span("request", id) {
        val cached = t.span("cache_get", id) {
          val got = cache.get(spark, ds.name, p)
          got.foreach(caps => t.count("cache_get.rows", caps.count().toDouble))
          got.isDefined
        }
        if (!cached) {
          t.span("segment_evolve", id) {
            t.count("segment_evolve.events", Miscela.evolvingEvents(ds.data, p).count().toDouble)
          }
          t.span("proximity", id) {
            val (edges, comps) = Miscela.spatialComponents(spark, ds.locations, p)
            t.count("proximity.edges", edges.count().toDouble)
            val sizes = comps.collect().groupBy(_.get(1)).values.map(_.length)
            t.count("proximity.components", sizes.size.toDouble)
            t.count("proximity.largest_component", sizes.max.toDouble)
          }
          val assembled = t.span("route", id) {
            val a = Miscela.assembleComponents(spark, ds.data, ds.locations, p)
            t.count("route.sensors_kept", a.map(_._1.length).sum.toDouble)
            a
          }
          val found = t.span("search", id) {
            var maxMs = 0.0
            val caps = assembled.flatMap { case (sensors, edges, nT) =>
              val s = System.nanoTime()
              val c = Miscela.searchAssembled(sensors, edges, nT, p, useNaive = false)
              maxMs = math.max(maxMs, (System.nanoTime() - s) / 1e6)
              c
            }
            t.count("search.max_component_ms", maxMs)
            t.count("search.caps", caps.size.toDouble)
            caps
          }
          t.span("cache_put", id) {
            // The CAPs of the search span into a scratch store: the write
            // cost alone, without re-running the lazy mining plan.
            val scratch = args.work.resolve("cache-put-scratch")
            new CapCache(scratch.toString).put(ds.name, p, capsDataset(found))
            deleteTree(scratch)
          }
        }
        val start = System.nanoTime()
        val (caps, hit) = t.span("get_or_compute", id)(getOrCompute(ds, p))
        val files = t.span("export", id) {
          val f = JsonExport.writeAll(out.toString, caps, ds.locations, ds.data)
          t.count("export.bytes", f.map(x => Files.size(Paths.get(x)).toDouble).sum)
          f
        }
        t.count("request.real_ms", (System.nanoTime() - start) / 1e6)
        t.count("request.hit", if (hit) 1.0 else 0.0)
        entryDirs.get(ds.name + "|" + p.cacheKey).foreach(d => t.count("cache.entry_bytes", treeBytes(d).toDouble))
        Response(p, hit, (System.nanoTime() - start) / 1e6, out, files)
      }
    }

    /** Writes the spans of this traced run. The first traced run of a
      * (workload, seed) in a build keeps its file; every later one is
      * compared with it and must show the same Spark job and task counts
      * for each span the two runs share.
      */
    private def compareWithFirstTrace(spans: Seq[SpanRecord]): Boolean = {
      Files.createDirectories(args.traceDir)
      val first = args.traceDir.resolve(s"${workload.name}-seed${args.seed}.jsonl")
      val mine = args.traceDir.resolve(s"${workload.name}-seed${args.seed}-last.jsonl")
      writeSpans(if (Files.exists(first)) mine else first, spans)
      println(s"perfbench trace ${if (Files.exists(mine)) mine else first}")
      if (!Files.exists(mine)) true
      else {
        // (name, request, occurrence) -> (jobs, tasks)
        val mapper = new ObjectMapper()
        def counts(f: Path) = Files.readAllLines(f).asScala.toSeq
          .map(mapper.readTree)
          .groupBy(n => (n.get("name").asText, n.get("request").asInt))
          .flatMap { case ((n, r), ns) =>
            ns.zipWithIndex.map { case (m, i) => (n, r, i) -> (m.get("spark_jobs").asLong, m.get("spark_tasks").asLong) }
          }
        val (a, b) = (counts(first), counts(mine))
        val differ = (a.keySet intersect b.keySet).filter(k => a(k) != b(k))
        differ.foreach(k => System.err.println(s"perfbench: FAILED span $k: Spark (jobs, tasks) ${a(k)} in $first, ${b(k)} now"))
        differ.isEmpty
      }
    }

    private def writeSpans(f: Path, spans: Seq[SpanRecord]): Unit = {
      val lines = spans.map { s =>
        jsonObj(Seq(
          "id" -> s.id.toString, "name" -> quote(s.name), "request" -> s.request.toString,
          "parent" -> s.parent.toString, "start_ms" -> num(s.startMs), "end_ms" -> num(s.endMs),
          "spark_jobs" -> s.work.jobs.toString, "spark_tasks" -> s.work.tasks.toString,
          "shuffle_bytes" -> s.work.shuffleBytes.toString,
          "counts" -> jsonObj(s.counts.toSeq.sortBy(_._1).map { case (k, v) => k -> num(v) }),
        ))
      }
      Files.write(f, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
    }
  }

  // -----------------------------------------------------------------
  // Helpers
  // -----------------------------------------------------------------

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }

  /** Peak resident set of this JVM (VmHWM), in MB. */
  def peakRssMb(): Double =
    Files.readAllLines(Paths.get("/proc/self/status")).asScala
      .collectFirst { case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024.0 }
      .getOrElse(0.0)

  def treeBytes(p: Path): Long =
    Files.walk(p).iterator().asScala.filter(Files.isRegularFile(_)).map(Files.size).sum

  def deleteTree(p: Path): Unit =
    if (Files.exists(p)) Files.walk(p).iterator().asScala.toSeq.reverse.foreach(Files.delete)

  def quote(s: String): String = repro.viz.Json.quote(s)
  def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString
  def jsonObj(fields: Iterable[(String, String)]): String =
    fields.map { case (k, v) => s"${quote(k)}: $v" }.mkString("{", ", ", "}")
}
