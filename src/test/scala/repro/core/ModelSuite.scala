package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Encodings of the DataFrame database-network model. */
class ModelSuite extends AnyFunSuite {

  test("txId does not collide across vertices at ti = 2^20") {
    val ti = 1 << 20
    assert(DatabaseNetwork.txId(0, ti) != DatabaseNetwork.txId(1, 0))
    assert(DatabaseNetwork.txId(7, ti) >>> 32 == 7L)
    assert((DatabaseNetwork.txId(7, ti) & 0xffffffffL) == ti.toLong)
    assert(DatabaseNetwork.txId(0, Int.MaxValue) < DatabaseNetwork.txId(1, 0))
  }
}
