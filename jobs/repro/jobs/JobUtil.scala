package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{CapParams, SignPolicy}

/** Shared plumbing for the spark-submit entrypoints: session construction
  * and `--key value` argument parsing, against the flags each job declares,
  * with typed accessors.
  */
object JobUtil {

  def session(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()

  final case class Args(kv: Map[String, String]) {
    def str(key: String, default: String): String = kv.getOrElse(key, default)
    def dbl(key: String, default: Double): Double = kv.get(key).map(_.toDouble).getOrElse(default)
    def int(key: String, default: Int): Int = kv.get(key).map(_.toInt).getOrElse(default)
    def bool(key: String, default: Boolean): Boolean = kv.get(key).map(_.toBoolean).getOrElse(default)

    /** CAP parameters from --epsilon/--eta/--mu/--psi/--delta/--sign/--max-sensors. */
    def capParams(base: CapParams = CapParams()): CapParams = base.copy(
      epsilon = dbl("epsilon", base.epsilon),
      etaKm = dbl("eta", base.etaKm),
      mu = int("mu", base.mu),
      psi = int("psi", base.psi),
      delta = dbl("delta", base.delta),
      signPolicy = SignPolicy.fromString(str("sign", base.signPolicy.toString)),
      maxSensors = int("max-sensors", base.maxSensors),
      allowSingleAttribute = bool("allow-single-attr", base.allowSingleAttribute),
    )
  }

  /** The flags [[Args.capParams]] reads. */
  val CapKeys: Set[String] =
    Set("epsilon", "eta", "mu", "psi", "delta", "sign", "max-sensors", "allow-single-attr")

  /** Parses `--key value` pairs. Throws `IllegalArgumentException`, naming
    * the token, for a key not in `known`, a key given twice, a key with no
    * value and any token that is not a `--key` where one is expected — a
    * mistyped flag must not run the job with defaults.
    */
  def parse(args: Array[String], known: Set[String]): Args = {
    def bad(msg: String) = throw new IllegalArgumentException(msg)
    val kv = args.grouped(2).foldLeft(Map.empty[String, String]) { (acc, pair) =>
      val flag = pair(0)
      val key = flag.stripPrefix("--")
      if (!flag.startsWith("--")) bad(s"unexpected argument '$flag': expected --key value")
      if (!known(key)) bad(s"unknown flag '$flag'; known: ${known.toSeq.sorted.map("--" + _).mkString(" ")}")
      if (pair.length < 2 || pair(1).startsWith("--")) bad(s"flag '$flag' has no value")
      if (acc.contains(key)) bad(s"flag '$flag' given twice")
      acc.updated(key, pair(1))
    }
    Args(kv)
  }
}
