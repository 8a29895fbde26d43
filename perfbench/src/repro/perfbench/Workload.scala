package repro.perfbench

import scala.util.Random

import repro.core.CapParams

/** A benchmark workload: the dataset one analyst uploads and the seeded
  * parameter sequence they send.
  *
  * @param revisit false: every timed request sends fresh parameters, so
  *                every request misses the cache; true: set-up primes the
  *                cache with [[Workload.Primed]] parameter sets and every
  *                timed request revisits one of them, so every request hits
  */
final case class Workload(name: String, generator: String, sf: Double, revisit: Boolean) {

  def prime(rnd: Random): Seq[CapParams] =
    if (revisit) Workload.fresh(rnd).take(Workload.Primed).toSeq else Nil

  /** The timed requests: fresh parameters every time, or a seeded walk
    * over the primed sets.
    */
  def requests(rnd: Random, primed: Seq[CapParams]): Iterator[CapParams] =
    if (revisit) Iterator.continually(primed(rnd.nextInt(primed.size)))
    else Workload.fresh(rnd)

  /** Warm-up requests, sent on the workload's files under a dataset name
    * of their own with ψ values the timed parameter sets never take. A
    * cold workload sends two misses with distinct ψ: after a single one,
    * the next four requests still got faster by up to a quarter. A warm
    * one sends three hits on an entry stored beforehand; hits after the
    * first were flat.
    */
  def warmUp: Seq[CapParams] =
    if (revisit) Seq.fill(3)(Workload.Base.copy(psi = 30))
    else Seq(30, 31).map(psi => Workload.Base.copy(psi = psi))
}

object Workload {

  /** T2's Santander base setting. */
  val Base: CapParams = CapParams(epsilon = 1.0, etaKm = 0.5, mu = 3, psi = 50, maxSensors = 4)

  val Primed = 2

  val all: Seq[Workload] = Seq(
    // Every request misses: stages 1–3, routing, cache write and export
    // on a result of ~260 CAPs; the search itself takes milliseconds.
    Workload("sweep-cold", "santander", 0.1, revisit = false),
    // Every request hits a primed entry: cache read and export only.
    Workload("revisit-warm", "santander", 0.1, revisit = true),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))

  /** Distinct seeded parameter sets around the base: ε on a 0.001 grid in
    * [0.9, 1.1], η on a 1 m grid in [0.45, 0.55] km, ψ in [45, 55]. The
    * CAP set is the same ~260 CAPs across this range, so every fresh
    * request does the same work. Grid values keep the cache key, which
    * rounds to six decimals, distinct for distinct sets.
    */
  def fresh(rnd: Random): Iterator[CapParams] =
    Iterator.continually(Base.copy(
      epsilon = 0.9 + rnd.nextInt(201) * 0.001,
      etaKm = 0.45 + rnd.nextInt(101) * 0.001,
      psi = 45 + rnd.nextInt(11),
    )).distinctBy(_.cacheKey)
}
