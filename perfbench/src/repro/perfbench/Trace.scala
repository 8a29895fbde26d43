package repro.perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}

import scala.collection.mutable

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Spark work done under one job group. */
final case class SparkWork(jobs: Long, tasks: Long, shuffleBytes: Long) {
  def +(o: SparkWork): SparkWork = SparkWork(jobs + o.jobs, tasks + o.tasks, shuffleBytes + o.shuffleBytes)
  def -(o: SparkWork): SparkWork = SparkWork(jobs - o.jobs, tasks - o.tasks, shuffleBytes - o.shuffleBytes)
}

object SparkWork {
  val Zero: SparkWork = SparkWork(0, 0, 0)
}

/** Counts jobs, tasks and shuffle bytes written per Spark job group.
  *
  * Listener events arrive on Spark's listener bus after the action that
  * caused them has returned, so a counter read right after an action can
  * miss its last tasks. The counts are therefore read only after
  * [[fence]]: the bus delivers one listener's events in order, so once the
  * fence job's end is seen, every event of every earlier job has been too.
  */
final class GroupCounter extends SparkListener {
  private val GroupKey = "spark.jobGroup.id"
  private val FenceGroup = "perfbench-fence"

  // Written only by the listener-bus thread; read after the fence latch.
  private val stageGroup = mutable.Map.empty[Int, String]
  private val jobGroup = mutable.Map.empty[Int, String]
  private val work = mutable.Map.empty[String, SparkWork].withDefaultValue(SparkWork.Zero)
  private val fenceDone = new CountDownLatch(1)

  private def groupOf(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty(GroupKey))).getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = groupOf(e.properties)
    jobGroup(e.jobId) = g
    work(g) += SparkWork(1, 0, 0)
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    stageGroup(e.stageInfo.stageId) = groupOf(e.properties)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val bytes = Option(e.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
    work(stageGroup.getOrElse(e.stageId, "")) += SparkWork(0, 1, bytes)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (jobGroup.get(e.jobId).contains(FenceGroup)) fenceDone.countDown()

  /** Runs one tiny job and waits until the listener has seen it end; the
    * per-group counts are complete afterwards.
    */
  def fence(spark: SparkSession): Map[String, SparkWork] = {
    val sc = spark.sparkContext
    sc.setJobGroup(FenceGroup, "listener fence", interruptOnCancel = false)
    sc.parallelize(Seq(1), 1).count()
    sc.clearJobGroup()
    require(fenceDone.await(60, TimeUnit.SECONDS), "Spark listener bus did not drain within 60 s")
    work.toMap - FenceGroup
  }
}

/** One finished span. `work` covers the span and all its descendants. */
final case class SpanRecord(
    id: Int,
    name: String,
    request: Int,
    parent: Int,
    startMs: Double,
    endMs: Double,
    work: SparkWork,
    counts: Map[String, Double],
) {
  def wallMs: Double = endMs - startMs
}

/** In-memory span recorder for the traced run.
  *
  * Each span sets its own Spark job group while it is open, so every job a
  * span's calls start is attributed to the innermost open span; a parent's
  * work is the sum over its subtree. Spans are kept in memory and returned
  * by [[finish]] once the listener bus has drained.
  */
final class Tracer(spark: SparkSession) {
  private val counter = new GroupCounter
  spark.sparkContext.addSparkListener(counter)

  private final case class Open(id: Int, name: String, request: Int, parent: Int, startNs: Long,
      counts: mutable.LinkedHashMap[String, Double])
  private final case class Closed(open: Open, endNs: Long)

  private val origin = System.nanoTime()
  private var nextId = 0
  private var stack = List.empty[Open]
  private val closed = mutable.ArrayBuffer.empty[Closed]

  private def group(id: Int) = s"perfbench-span-$id"

  private def enterGroup(): Unit = stack.headOption match {
    case Some(o) => spark.sparkContext.setJobGroup(group(o.id), o.name, interruptOnCancel = false)
    case None    => spark.sparkContext.clearJobGroup()
  }

  /** Times `body` as span `name` of `request`, nested in the open span. */
  def span[A](name: String, request: Int)(body: => A): A = {
    val open = Open(nextId, name, request, stack.headOption.map(_.id).getOrElse(-1), System.nanoTime(),
      mutable.LinkedHashMap.empty)
    nextId += 1
    stack = open :: stack
    enterGroup()
    try body
    finally {
      val end = System.nanoTime()
      stack = stack.tail
      enterGroup()
      closed += Closed(open, end)
    }
  }

  /** Records a work count on the innermost open span. */
  def count(key: String, value: Double): Unit = stack.head.counts(key) = value

  /** Drains the listener bus and returns every span in start order. */
  def finish(): Seq[SpanRecord] = {
    require(stack.isEmpty, "finish() with open spans")
    val byGroup = counter.fence(spark)
    val own = closed.map(c => c.open.id -> byGroup.getOrElse(group(c.open.id), SparkWork.Zero)).toMap
    val children = closed.groupBy(_.open.parent).map { case (p, cs) => p -> cs.map(_.open.id) }
    def subtree(id: Int): SparkWork =
      children.getOrElse(id, Nil).foldLeft(own(id))((acc, c) => acc + subtree(c))
    def ms(ns: Long) = (ns - origin) / 1e6
    closed.toSeq.sortBy(_.open.id).map { c =>
      SpanRecord(c.open.id, c.open.name, c.open.request, c.open.parent, ms(c.open.startNs), ms(c.endNs),
        subtree(c.open.id), c.open.counts.toMap)
    }
  }
}
