package trace

import (
	"encoding/binary"

	"repro/internal/isa"
)

// Instruction-record control-byte layout (see docs/trace-format.md):
// low three bits hold the op, the upper bits are presence flags.
const (
	ctrlOpMask   = 0x07
	ctrlPhys     = 1 << 3
	ctrlHasCount = 1 << 4
	ctrlHasPC    = 1 << 5
	ctrlHasAddr  = 1 << 6
	ctrlReserved = 1 << 7
)

// maxRecordBytes is the widest possible instruction record: the control
// byte plus three maximum-length varints (pc delta, count, addr delta).
const maxRecordBytes = 1 + 3*binary.MaxVarintLen64

// tally counts a record stream: records, dynamic instructions (batched
// ops at their batch size, delays excluded) and memory-operand
// instructions.
type tally struct {
	records, insts, memOps uint64
}

// since returns what t counts beyond start.
func (t tally) since(start tally) tally {
	return tally{t.records - start.records, t.insts - start.insts, t.memOps - start.memOps}
}

// add counts one record of op with batch count n.
func (t *tally) add(op isa.Op, n uint64) {
	t.records++
	if op != isa.OpDelay {
		t.insts += n
	}
	if op.HasMemOperand() {
		t.memOps += n
	}
}

// codec is the record codec of both container versions, writing and
// reading: the delta base the next record is encoded against, and the
// stream's counts so far. A v1 stream carries one delta base from the
// first record to the last; v2 resets it at every block boundary.
type codec struct {
	prevPC, prevAddr uint64
	tally
}

// appendRecord appends the encoding of in to dst and advances the
// stream state. Records are canonicalised: a zero Count is stored as 1
// (the two are semantically identical, see isa.Inst.N) and the address
// field is stored only for ops that carry a memory operand.
func (c *codec) appendRecord(dst []byte, in isa.Inst) []byte {
	ctrl := uint8(in.Op) // WriteInst has rejected ops above ctrlOpMask
	if in.Phys {
		ctrl |= ctrlPhys
	}
	count := in.N()
	if count > 1 {
		ctrl |= ctrlHasCount
	}
	if in.PC != c.prevPC {
		ctrl |= ctrlHasPC
	}
	hasAddr := in.Op.HasMemOperand()
	if hasAddr {
		ctrl |= ctrlHasAddr
	}
	dst = append(dst, ctrl)
	if ctrl&ctrlHasPC != 0 {
		dst = binary.AppendVarint(dst, int64(in.PC-c.prevPC))
		c.prevPC = in.PC
	}
	if ctrl&ctrlHasCount != 0 {
		dst = binary.AppendUvarint(dst, count)
	}
	if hasAddr {
		dst = binary.AppendVarint(dst, int64(in.Addr-c.prevAddr))
		c.prevAddr = in.Addr
	}
	c.add(in.Op, count)
	return dst
}

// decodeRecord decodes the record at the start of buf into out and
// returns its length in bytes. buf is a window that holds any whole
// record unless the stream ends inside it, so a record that does not
// fit is truncated: ErrCorrupt. The stream state advances only once
// the whole record has decoded; on error it is left as it was.
func (c *codec) decodeRecord(buf []byte, out *isa.Inst) (int, error) {
	if len(buf) == 0 {
		return 0, corruptf("record %d: truncated", c.records)
	}
	ctrl := buf[0]
	if ctrl&ctrlReserved != 0 {
		return 0, corruptf("record %d: reserved control bit set (%#02x)", c.records, ctrl)
	}
	in := isa.Inst{Op: isa.Op(ctrl & ctrlOpMask), Phys: ctrl&ctrlPhys != 0, Count: 1, PC: c.prevPC}
	n := 1
	if ctrl&ctrlHasPC != 0 {
		d, k := binary.Varint(buf[n:])
		if k <= 0 {
			return 0, corruptf("record %d: truncated or overlong pc delta", c.records)
		}
		n += k
		in.PC += uint64(d)
	}
	if ctrl&ctrlHasCount != 0 {
		v, k := binary.Uvarint(buf[n:])
		if k <= 0 {
			return 0, corruptf("record %d: truncated or overlong count", c.records)
		}
		if v < 2 || v > 1<<32-1 {
			return 0, corruptf("record %d: count %d out of range", c.records, v)
		}
		n += k
		in.Count = uint32(v)
	}
	hasAddr := in.Op.HasMemOperand()
	if ctrl&ctrlHasAddr != 0 {
		if !hasAddr {
			return 0, corruptf("record %d: address on %v op", c.records, in.Op)
		}
		d, k := binary.Varint(buf[n:])
		if k <= 0 {
			return 0, corruptf("record %d: truncated or overlong addr delta", c.records)
		}
		n += k
		in.Addr = c.prevAddr + uint64(d)
		c.prevAddr = in.Addr
	} else if hasAddr {
		return 0, corruptf("record %d: %v op without address", c.records, in.Op)
	}
	c.prevPC = in.PC
	c.add(in.Op, uint64(in.Count))
	*out = in
	return n, nil
}
