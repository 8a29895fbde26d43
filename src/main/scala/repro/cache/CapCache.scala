package repro.cache

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths, StandardCopyOption}
import java.security.MessageDigest

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{Cap, CapParams}

/** The paper's caching mechanism (Section 3.3), MongoDB replaced by a
  * parameter-keyed Parquet store on the local filesystem (see DESIGN.md
  * "Substitutions").
  *
  * "We store the name of the dataset, parameters, and CAPs … Before
  * computing CAPs by MISCELA, our system searches for CAPs with the same
  * parameters and the name of the dataset from the database."
  *
  * Keys are a SHA-256 of (dataset name, canonical parameter string); each
  * entry is a Parquet directory of [[Cap]] rows plus a `params.txt`
  * sidecar holding the raw key material, so a (astronomically unlikely)
  * hash collision is detected rather than silently served.
  */
final class CapCache(root: String) {

  private def keyOf(dataset: String, params: CapParams): (String, String) = {
    val material = s"$dataset|${params.cacheKey}"
    val digest = MessageDigest.getInstance("SHA-256").digest(material.getBytes(StandardCharsets.UTF_8))
    (digest.map("%02x".format(_)).mkString, material)
  }

  private def entryDir(key: String) = Paths.get(root, key)

  /** True iff a result for (dataset, params) is stored. */
  def contains(dataset: String, params: CapParams): Boolean = {
    val (key, material) = keyOf(dataset, params)
    val marker = entryDir(key).resolve("params.txt")
    Files.exists(marker) &&
    new String(Files.readAllBytes(marker), StandardCharsets.UTF_8) == material
  }

  /** Stores `caps` for (dataset, params), overwriting any previous entry.
    *
    * The entry is written into a temporary directory under the cache root
    * and renamed into place, so a put that fails part-way (a failed mining
    * job, a full disk) leaves the previous state: no half-written entry
    * that [[contains]] accepts, and no stray directory once it returns.
    */
  def put(dataset: String, params: CapParams, caps: Dataset[Cap]): Unit = {
    val (key, material) = keyOf(dataset, params)
    val dir = entryDir(key)
    Files.createDirectories(dir.getParent)
    val tmp = Files.createTempDirectory(dir.getParent, s".put-$key-")
    val old = dir.resolveSibling(s"${tmp.getFileName}.old")
    try {
      caps.write.parquet(tmp.resolve("caps.parquet").toString)
      Files.write(tmp.resolve("params.txt"), material.getBytes(StandardCharsets.UTF_8))
      // A directory cannot be renamed over a non-empty one: move the old
      // entry aside first.
      if (Files.exists(dir)) Files.move(dir, old, StandardCopyOption.ATOMIC_MOVE)
      Files.move(tmp, dir, StandardCopyOption.ATOMIC_MOVE)
    } finally {
      deleteTree(tmp)
      deleteTree(old)
    }
  }

  private def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val paths = Files.walk(p)
      try paths.iterator().asScala.toSeq.reverse.foreach(Files.delete)
      finally paths.close()
    }

  /** The stored result for (dataset, params), if any. */
  def get(spark: SparkSession, dataset: String, params: CapParams): Option[Dataset[Cap]] = {
    import spark.implicits._
    if (!contains(dataset, params)) None
    else Some(spark.read.parquet(entryDir(keyOf(dataset, params)._1).resolve("caps.parquet").toString).as[Cap])
  }

  /** The interactive-analysis entry point: serve from the store when the
    * user re-submits known parameters, otherwise run MISCELA and persist.
    * Returns (caps, cacheHit).
    */
  def getOrCompute(
      spark: SparkSession,
      dataset: String,
      params: CapParams,
  )(compute: => Dataset[Cap]): (Dataset[Cap], Boolean) =
    get(spark, dataset, params) match {
      case Some(cached) => (cached, true)
      case None =>
        val caps = compute
        put(dataset, params, caps)
        // Read back the persisted copy so downstream reuse does not
        // recompute the (lazy) mining plan.
        (get(spark, dataset, params).get, false)
    }
}
