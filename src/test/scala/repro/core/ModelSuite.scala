package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestNets

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

/** Encodings of the DataFrame database-network model and its compact view. */
class ModelSuite extends AnyFunSuite {

  test("txId does not collide across vertices at ti = 2^20") {
    val ti = 1 << 20
    assert(DatabaseNetwork.txId(0, ti) != DatabaseNetwork.txId(1, 0))
    assert(DatabaseNetwork.txId(7, ti) >>> 32 == 7L)
    assert((DatabaseNetwork.txId(7, ti) & 0xffffffffL) == ti.toLong)
    assert(DatabaseNetwork.txId(0, Int.MaxValue) < DatabaseNetwork.txId(1, 0))
  }

  test("a serialised CompactNetwork ships no derived field and derives them again") {
    def bytes(n: CompactNetwork): Array[Byte] = {
      val b = new ByteArrayOutputStream()
      val out = new ObjectOutputStream(b)
      out.writeObject(n); out.close()
      b.toByteArray
    }
    val net = TestNets.smallPlanted().compact
    val p = Vector(net.items.head)
    val before = (net.edgeList.toVector, net.items.toVector, net.freqAll(p).toVector)
    assert(bytes(net).length == bytes(TestNets.smallPlanted().compact).length)
    val copy = new ObjectInputStream(new ByteArrayInputStream(bytes(net))).readObject().asInstanceOf[CompactNetwork]
    assert((copy.edgeList.toVector, copy.items.toVector, copy.freqAll(p).toVector) == before)
  }
}
