package repro.geo

import org.scalatest.funsuite.AnyFunSuite

/** Registry validation of [[ProximityGraph]]; its edge and component
  * properties live in SpatialJoinSpec and ConnectedComponentsSpec.
  */
class ProximityGraphSpec extends AnyFunSuite {

  private def rejected(sites: Seq[(String, Double, Double)]): String =
    intercept[IllegalArgumentException](ProximityGraph(sites, 1.0)).getMessage

  test("a NaN (or null) coordinate is rejected, naming the sensor") {
    assert(rejected(Seq(("ok", 1.0, 1.0), ("s7", Double.NaN, 1.0))).contains("'s7'"))
    assert(rejected(Seq(("s8", 1.0, Double.NaN))).contains("'s8'"))
  }

  test("a latitude outside [-90, 90] is rejected, naming the sensor") {
    assert(rejected(Seq(("north", 90.5, 0.0))).contains("'north'"))
    assert(rejected(Seq(("south", -91.0, 0.0))).contains("'south'"))
  }

  test("a longitude outside [-180, 180] is rejected, naming the sensor") {
    assert(rejected(Seq(("east", 0.0, 180.001))).contains("'east'"))
    assert(rejected(Seq(("west", 0.0, -200.0))).contains("'west'"))
  }

  test("a duplicate id is rejected, naming the sensor") {
    assert(rejected(Seq(("a", 1.0, 1.0), ("twice", 1.0, 1.0), ("twice", 2.0, 2.0))).contains("'twice'"))
  }

  test("the boundary coordinates ±90 and ±180 are accepted") {
    val g = ProximityGraph(Seq(("n", 90.0, 180.0), ("s", -90.0, -180.0)), 1.0)
    assert(g.ids == Seq("n", "s") && g.edges.isEmpty)
  }

  test("an empty registry has no sensors and no edges") {
    val g = ProximityGraph(Nil, 1.0)
    assert(g.ids.isEmpty && g.components.isEmpty && g.edges.isEmpty)
  }
}
