package repro.core

import scala.collection.mutable

import org.apache.spark.rdd.RDD

/** Dense integer index over the dataset's synchronized timestamps.
  *
  * The paper requires "timestamps must be the same time intervals" and all
  * sensors synchronized, so the distinct timestamps of `data.csv` form one
  * global grid; bitsets in the CAP search are indexed by position on that
  * grid. The grid is a few thousand timestamps even at sf=1, so it is
  * collected to the driver once per mining run and travels to the tasks in
  * their closure; a record's tIdx is the dense rank of its timestamp.
  */
object TimeIndex {

  /** The grid of `times`: their sorted distinct values. One job, with
    * each partition sending its own distinct timestamps to the driver.
    */
  def grid(times: RDD[Array[Long]]): Array[Long] =
    times
      .mapPartitions { it =>
        val seen = mutable.LongMap.empty[Unit]
        it.foreach(_.foreach(t => seen.update(t, ())))
        Iterator(seen.keys.toArray)
      }
      .collect()
      .flatten
      .distinct
      .sorted

  /** tIdx of timestamp `micros` on `grid` — its position, by binary search.
    * Throws if `micros` is not on the grid.
    */
  def of(grid: Array[Long], micros: Long): Int = {
    val i = java.util.Arrays.binarySearch(grid, micros)
    require(i >= 0, s"timestamp $micros µs is not on the time grid")
    i
  }
}
