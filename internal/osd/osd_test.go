package osd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

const mb = 1 << 20

func testParams() DiskParams {
	return DiskParams{
		BandwidthBps:  100 * mb,
		PerOpOverhead: 100 * time.Microsecond,
		CreateCost:    250 * time.Microsecond,
		RemoveCost:    250 * time.Microsecond,
		SyncCost:      500 * time.Microsecond,
	}
}

// run executes fn as a simulated process and drains the kernel.
func run(t *testing.T, fn func(p *sim.Proc, d *Device)) *Device {
	t.Helper()
	k := sim.NewKernel()
	d := NewDevice(k, "osd0", testParams())
	k.Spawn("test", func(p *sim.Proc) { fn(p, d) })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		if err := d.Write(p, obj.ID, 0, netsim.BytesPayload([]byte("hello world"))); err != nil {
			t.Fatal(err)
		}
		got, err := d.Read(p, obj.ID, 0, 11)
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Data) != "hello world" {
			t.Fatalf("read %q", got.Data)
		}
	})
}

func TestReadBeyondEOFTruncates(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		if err := d.Write(p, obj.ID, 0, netsim.BytesPayload([]byte("abc"))); err != nil {
			t.Fatal(err)
		}
		got, err := d.Read(p, obj.ID, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Data) != "bc" {
			t.Fatalf("read %q", got.Data)
		}
		eof, err := d.Read(p, obj.ID, 10, 5)
		if err != nil || eof.Size != 0 {
			t.Fatalf("eof read: %v %+v", err, eof)
		}
	})
}

func TestSparseHolesZeroFill(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		if err := d.Write(p, obj.ID, 4, netsim.BytesPayload([]byte("xy"))); err != nil {
			t.Fatal(err)
		}
		got, err := d.Read(p, obj.ID, 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, []byte{0, 0, 0, 0, 'x', 'y'}) {
			t.Fatalf("read %v", got.Data)
		}
	})
}

func TestSyntheticWriteExtendsSizeOnly(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		if err := d.Write(p, obj.ID, 0, netsim.SyntheticPayload(512*mb)); err != nil {
			t.Fatal(err)
		}
		st, err := d.Stat(obj.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size != 512*mb {
			t.Fatalf("size = %d", st.Size)
		}
		got, err := d.Read(p, obj.ID, 0, 4*mb)
		if err != nil || got.Data != nil || got.Size != 4*mb {
			t.Fatalf("read %+v err %v", got, err)
		}
	})
}

func TestWriteTimingMatchesBandwidth(t *testing.T) {
	k := sim.NewKernel()
	d := NewDevice(k, "osd0", testParams())
	var elapsed time.Duration
	k.Spawn("w", func(p *sim.Proc) {
		obj := d.Create(p, 1)
		start := p.Now()
		if err := d.Write(p, obj.ID, 0, netsim.SyntheticPayload(100*mb)); err != nil {
			t.Error(err)
		}
		elapsed = p.Now().Sub(start)
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	want := time.Second + 100*time.Microsecond
	if elapsed != want {
		t.Fatalf("write took %v, want %v", elapsed, want)
	}
}

func TestDiskSerializesConcurrentWriters(t *testing.T) {
	k := sim.NewKernel()
	d := NewDevice(k, "osd0", testParams())
	var obj *Object
	k.Spawn("setup", func(p *sim.Proc) { obj = d.Create(p, 1) })
	var latest sim.Time
	for i := 0; i < 4; i++ {
		k.SpawnAt(sim.Time(time.Millisecond), "w", func(p *sim.Proc) {
			if err := d.Write(p, obj.ID, 0, netsim.SyntheticPayload(25*mb)); err != nil {
				t.Error(err)
			}
			if p.Now() > latest {
				latest = p.Now()
			}
		})
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	// 4 x 0.25s serialized on one disk.
	if latest < sim.Time(time.Second) {
		t.Fatalf("writers overlapped on one disk: finished at %v", latest)
	}
}

func TestRemove(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		if err := d.Remove(p, obj.ID); err != nil {
			t.Fatal(err)
		}
		if err := d.Remove(p, obj.ID); !errors.Is(err, ErrNoObject) {
			t.Fatalf("double remove: %v", err)
		}
		if _, err := d.Read(p, obj.ID, 0, 1); !errors.Is(err, ErrNoObject) {
			t.Fatalf("read after remove: %v", err)
		}
	})
}

func TestCreateWithID(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		if _, err := d.CreateWithID(p, 100, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := d.CreateWithID(p, 100, 1); !errors.Is(err, ErrExists) {
			t.Fatalf("dup create: %v", err)
		}
		// Fresh Create must not collide with the chosen ID space.
		obj := d.Create(p, 1)
		if obj.ID == 100 {
			t.Fatal("ID collision")
		}
	})
}

func TestAttrs(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		if err := d.SetAttr(p, obj.ID, "kind", "checkpoint-md"); err != nil {
			t.Fatal(err)
		}
		v, err := d.GetAttr(obj.ID, "kind")
		if err != nil || v != "checkpoint-md" {
			t.Fatalf("attr = %q, %v", v, err)
		}
	})
}

func TestListContainer(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		a := d.Create(p, 1)
		d.Create(p, 2)
		c := d.Create(p, 1)
		got := d.ListContainer(1)
		want := []ObjectID{a.ID, c.ID}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("list = %v want %v", got, want)
		}
	})
}

func TestStatNoObject(t *testing.T) {
	run(t, func(p *sim.Proc, d *Device) {
		if _, err := d.Stat(999); !errors.Is(err, ErrNoObject) {
			t.Fatalf("stat: %v", err)
		}
	})
}

func TestSyncWaitsForQueuedIO(t *testing.T) {
	k := sim.NewKernel()
	d := NewDevice(k, "osd0", testParams())
	var syncDone sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		obj := d.Create(p, 1)
		// Queue a big write asynchronously via a second process, then sync.
		k.Spawn("bg", func(q *sim.Proc) {
			if err := d.Write(q, obj.ID, 0, netsim.SyntheticPayload(100*mb)); err != nil {
				t.Error(err)
			}
		})
		p.Sleep(time.Millisecond) // let the write enter the disk queue
		d.Sync(p)
		syncDone = p.Now()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if syncDone < sim.Time(time.Second) {
		t.Fatalf("sync returned before queued write finished: %v", syncDone)
	}
}

func TestCounters(t *testing.T) {
	d := run(t, func(p *sim.Proc, d *Device) {
		obj := d.Create(p, 1)
		d.Write(p, obj.ID, 0, netsim.SyntheticPayload(1000))
		d.Read(p, obj.ID, 0, 400)
		d.Remove(p, obj.ID)
	})
	creates, removes, reads, writes, br, bw := d.Counters()
	if creates != 1 || removes != 1 || reads != 1 || writes != 1 || br != 400 || bw != 1000 {
		t.Fatalf("counters: %d %d %d %d %d %d", creates, removes, reads, writes, br, bw)
	}
}

// runBlobScript decodes script into Write, Truncate and Read ops on a Blob
// and checks the blob against a flat byte-slice model after every op: same
// size, same bytes over [0, size) with zero-filled holes, and the extent
// invariant (sorted, non-overlapping, non-empty, capacity-capped so no
// extent can alias bytes outside itself). Each op is 4 script bytes: kind,
// a 16-bit offset and a length.
func runBlobScript(script []byte) error {
	var b Blob
	var model []byte // logical content; len(model) == b.Size()
	for n := 0; len(script) >= 4; n++ {
		kind, off, ln := script[0]%8, int64(script[1])|int64(script[2])<<8, int64(script[3])
		script = script[4:]
		switch {
		case kind < 5: // writes dominate, as on a journal
			off %= 1024
			data := make([]byte, ln)
			for i := range data {
				data[i] = byte(n*31 + i)
			}
			b.Write(off, netsim.BytesPayload(data))
			if end := off + ln; end > int64(len(model)) {
				model = append(model, make([]byte, end-int64(len(model)))...)
			}
			copy(model[off:], data)
		case kind == 5:
			size := off % 1100
			b.Truncate(size)
			if size <= int64(len(model)) {
				model = model[:size]
			} else {
				model = append(model, make([]byte, size-int64(len(model)))...)
			}
		default:
			off %= 1100
			if err := checkBlobRead(&b, model, off, ln*2); err != nil {
				return fmt.Errorf("op %d: %v", n, err)
			}
		}
		if b.Size() != int64(len(model)) {
			return fmt.Errorf("op %d: size %d, model %d", n, b.Size(), len(model))
		}
		if err := checkBlobRead(&b, model, 0, b.Size()); err != nil {
			return fmt.Errorf("op %d: %v", n, err)
		}
		for i, x := range b.extents {
			switch {
			case len(x.data) == 0:
				return fmt.Errorf("op %d: extent %d empty", n, i)
			case cap(x.data) != len(x.data):
				return fmt.Errorf("op %d: extent %d cap %d > len %d", n, i, cap(x.data), len(x.data))
			case i > 0 && b.extents[i-1].end() > x.off:
				return fmt.Errorf("op %d: extent %d at %d overlaps or precedes end %d", n, i, x.off, b.extents[i-1].end())
			}
		}
	}
	return nil
}

// checkBlobRead compares b.Read(off, length) with the model, reading past
// the model's end as zeros.
func checkBlobRead(b *Blob, model []byte, off, length int64) error {
	got := b.Read(off, length)
	if got.Size != length {
		return fmt.Errorf("read [%d,+%d): size %d", off, length, got.Size)
	}
	for i := int64(0); i < length; i++ {
		var want, have byte
		if off+i < int64(len(model)) {
			want = model[off+i]
		}
		if got.Data != nil {
			have = got.Data[i]
		}
		if have != want {
			return fmt.Errorf("read [%d,+%d): byte %d = %d, want %d", off, length, off+i, have, want)
		}
	}
	return nil
}

// Property: interleaved Blob.Write/Truncate/Read agree with a naive model
// and keep the extent invariant after every op.
func TestBlobMatchesNaiveModel(t *testing.T) {
	prop := func(seed int64, ops uint8) bool {
		script := make([]byte, 4*(int(ops)+1))
		rand.New(rand.NewSource(seed)).Read(script)
		if err := runBlobScript(script); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func FuzzBlob(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 32, 0, 32, 0, 32, 0, 16, 0, 8, 7, 0, 0, 64})   // append, append, split, read
	f.Add([]byte{0, 0, 0, 200, 5, 50, 0, 0, 1, 40, 0, 20, 6, 0, 0, 255}) // truncate mid-extent, rewrite
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := runBlobScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBlobAppendAllocs pins journal appends to O(1) allocations however
// many extents the blob already holds: the payload copy plus amortised
// growth of the extent list.
func TestBlobAppendAllocs(t *testing.T) {
	var b Blob
	rec := netsim.BytesPayload(make([]byte, 32))
	for i := 0; i < 10000; i++ {
		b.Write(b.Size(), rec)
	}
	avg := testing.AllocsPerRun(1000, func() { b.Write(b.Size(), rec) })
	if avg > 2 {
		t.Fatalf("append to a %d-extent blob allocates %.1f objects, want <= 2", len(b.extents), avg)
	}
}

// BenchmarkBlobJournalAppend measures one 32-byte append to a blob already
// holding n extents. Every 1024 appends the blob is truncated back to n
// extents, so memory stays bounded; that cost is amortised into ns/op.
func BenchmarkBlobJournalAppend(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("extents=%d", n), func(b *testing.B) {
			var blob Blob
			rec := netsim.BytesPayload(make([]byte, 32))
			for i := 0; i < n; i++ {
				blob.Write(blob.Size(), rec)
			}
			base := blob.Size()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					blob.Truncate(base)
				}
				blob.Write(blob.Size(), rec)
			}
		})
	}
}

// Property: Truncate discards data past the cut and preserves data before it.
func TestBlobTruncateProperty(t *testing.T) {
	prop := func(seed int64, cut uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var b Blob
		model := map[int64]byte{}
		for i := 0; i < 10; i++ {
			off := int64(rng.Intn(500))
			data := make([]byte, rng.Intn(100)+1)
			rng.Read(data)
			b.Write(off, netsim.BytesPayload(data))
			for j, c := range data {
				model[off+int64(j)] = c
			}
		}
		c := int64(cut % 700)
		b.Truncate(c)
		if b.Size() != c {
			return false
		}
		got := b.Read(0, c)
		for i := int64(0); i < c; i++ {
			var have byte
			if got.Data != nil {
				have = got.Data[i]
			}
			if have != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: device read-after-write returns exactly the last write at every
// offset, across random object schedules.
func TestDeviceReadAfterWriteProperty(t *testing.T) {
	prop := func(seed int64) bool {
		k := sim.NewKernel()
		d := NewDevice(k, "osd", testParams())
		rng := rand.New(rand.NewSource(seed))
		ok := true
		k.Spawn("t", func(p *sim.Proc) {
			obj := d.Create(p, 7)
			model := map[int64]byte{}
			for i := 0; i < 8; i++ {
				off := int64(rng.Intn(256))
				data := make([]byte, rng.Intn(64)+1)
				rng.Read(data)
				if err := d.Write(p, obj.ID, off, netsim.BytesPayload(data)); err != nil {
					ok = false
					return
				}
				for j, c := range data {
					model[off+int64(j)] = c
				}
			}
			st, _ := d.Stat(obj.ID)
			got, err := d.Read(p, obj.ID, 0, st.Size)
			if err != nil {
				ok = false
				return
			}
			for i := int64(0); i < st.Size; i++ {
				if got.Data[i] != model[i] {
					ok = false
					return
				}
			}
		})
		if err := k.Run(sim.MaxTime); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
