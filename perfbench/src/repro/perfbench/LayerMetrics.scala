package repro.perfbench

/** Per-layer metrics of a traced run, from its spans.
  *
  * Span metrics are medians over the run's requests (`ingest` occurs once
  * per run). Two values are estimates, because Spark plans are lazy and
  * costs overlap: `route` re-runs stages 1–3 inside
  * `Miscela.assembleComponents`, so its own cost is its span minus the
  * `segment_evolve` and `proximity` spans of the same request; and
  * `mine.unattributed_ms` is the real `getOrCompute` miss minus the sum of
  * the stage spans.
  */
object LayerMetrics {

  val SpanNames: Seq[String] = Seq("ingest", "segment_evolve", "proximity", "route", "cache_put", "cache_get", "export")

  private val StageNames = Seq("segment_evolve", "proximity", "route", "search")

  def apply(spans: Seq[SpanRecord]): Seq[(String, Double, String)] = {
    final case class Cost(ms: Double, work: SparkWork) {
      def -(o: Cost): Cost = Cost(ms - o.ms, work - o.work)
    }
    val requests = spans.filter(_.name == "request")
    // Per request: the cost of each child span, with route made self-only.
    val perRequest: Seq[Map[String, Cost]] = requests.map { r =>
      val kids = spans.filter(s => s.parent == r.id).map(s => s.name -> Cost(s.wallMs, s.work)).toMap
      kids.get("route") match {
        case Some(route) => kids.updated("route", route - kids("segment_evolve") - kids("proximity"))
        case None        => kids
      }
    }
    val counts: Seq[Map[String, Double]] = requests.map(r => spans.filter(_.request == r.request).flatMap(_.counts).toMap)
    val ingest = spans.filter(_.name == "ingest").map(s => Cost(s.wallMs, s.work))

    def costs(name: String): Seq[Cost] = if (name == "ingest") ingest else perRequest.flatMap(_.get(name))
    def med(xs: Seq[Double]) = Bench.median(xs)
    def countOf(key: String) = med(counts.flatMap(_.get(key)) ++ spans.filter(_.name == "ingest").flatMap(_.counts.get(key)))

    val spanMetrics = SpanNames.flatMap { n =>
      val cs = costs(n)
      Seq(
        (s"$n.wall_ms", med(cs.map(_.ms)), "ms"),
        (s"$n.spark_jobs", med(cs.map(_.work.jobs.toDouble)), "count"),
        (s"$n.spark_tasks", med(cs.map(_.work.tasks.toDouble)), "count"),
        (s"$n.shuffle_bytes", med(cs.map(_.work.shuffleBytes.toDouble)), "B"),
      )
    }

    val misses = perRequest.zip(counts).filter { case (_, c) => c.get("request.hit").contains(0.0) }
    val mine = misses.flatMap { case (k, _) => k.get("get_or_compute") }
    val unattributed = misses.flatMap { case (k, _) =>
      k.get("get_or_compute").map(m => m.ms - StageNames.flatMap(k.get).map(_.ms).sum)
    }
    val hits = counts.flatMap(_.get("request.hit"))

    spanMetrics ++ Seq(
      ("ingest.rows", countOf("ingest.rows"), "count"),
      ("ingest.chunks", countOf("ingest.chunks"), "count"),
      ("segment_evolve.events", countOf("segment_evolve.events"), "count"),
      ("proximity.edges", countOf("proximity.edges"), "count"),
      ("proximity.components", countOf("proximity.components"), "count"),
      ("proximity.largest_component", countOf("proximity.largest_component"), "count"),
      ("route.sensors_kept", countOf("route.sensors_kept"), "count"),
      ("search.wall_ms", med(costs("search").map(_.ms)), "ms"),
      ("search.max_component_ms", countOf("search.max_component_ms"), "ms"),
      ("search.caps", countOf("search.caps"), "count"),
      ("cache.hit_ratio", if (hits.isEmpty) 0.0 else hits.sum / hits.size, "ratio"),
      ("cache.entry_bytes", countOf("cache.entry_bytes"), "B"),
      ("export.bytes", countOf("export.bytes"), "B"),
      ("mine.wall_ms", med(mine.map(_.ms)), "ms"),
      ("mine.spark_jobs", med(mine.map(_.work.jobs.toDouble)), "count"),
      ("mine.spark_tasks", med(mine.map(_.work.tasks.toDouble)), "count"),
      ("mine.unattributed_ms", med(unattributed), "ms"),
      ("request.wall_ms", med(requests.map(_.wallMs)), "ms"),
      ("trace.overhead_ms", med(requests.map(_.wallMs)) - countOf("request.real_ms"), "ms"),
    )
  }
}
