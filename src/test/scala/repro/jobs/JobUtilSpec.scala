package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{CapParams, SignPolicy}

class JobUtilSpec extends AnyFunSuite {

  private val keys = JobUtil.CapKeys ++ Set("dataset", "sf")

  test("parse reads --key value pairs") {
    val a = JobUtil.parse(Array("--dataset", "china6", "--sf", "0.1", "--psi", "25"), keys)
    assert(a.str("dataset", "x") == "china6")
    assert(a.dbl("sf", 1.0) == 0.1)
    assert(a.int("psi", 10) == 25)
  }

  test("missing keys fall back to defaults") {
    val a = JobUtil.parse(Array.empty, keys)
    assert(a.str("dataset", "santander") == "santander")
    assert(a.dbl("sf", 1.0) == 1.0)
    assert(a.bool("flag", true))
  }

  test("capParams overrides only the provided parameters") {
    val a = JobUtil.parse(Array("--epsilon", "2.5", "--mu", "4", "--sign", "any"), keys)
    val p = a.capParams(CapParams(psi = 50))
    assert(p.epsilon == 2.5 && p.mu == 4 && p.psi == 50)
    assert(p.signPolicy == SignPolicy.AnySign)
    assert(p.etaKm == CapParams().etaKm)
  }

  test("boolean flags parse") {
    val a = JobUtil.parse(Array("--allow-single-attr", "true"), keys)
    assert(a.capParams().allowSingleAttribute)
  }

  private def rejected(args: String*): String =
    intercept[IllegalArgumentException](JobUtil.parse(args.toArray, keys)).getMessage

  test("non --key tokens are ignored rather than crashing") {
    // Now rejected: a stray token must not let the job run with defaults.
    assert(rejected("positional", "junk", "--sf", "0.5").contains("'positional'"))
    assert(rejected("--sf", "0.5", "junk").contains("'junk'"))
  }

  test("an unknown flag is rejected, naming it") {
    // A typo of --psi used to run silently with the default psi.
    assert(rejected("--pis", "50").contains("'--pis'"))
  }

  test("a flag with no value is rejected, naming it") {
    assert(rejected("--sf").contains("'--sf'"))
    assert(rejected("--sf", "--psi", "50").contains("'--sf'"))
  }

  test("a flag given twice is rejected") {
    assert(rejected("--psi", "5", "--psi", "6").contains("'--psi'"))
  }
}
