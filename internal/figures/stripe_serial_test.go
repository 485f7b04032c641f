package figures

import (
	"bytes"
	"math/rand"
	"testing"

	"lwfs/internal/cluster"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/netsim"
	"lwfs/internal/sim"
)

// TestSerialBaselineAndEngineAgree: E17's serial baseline and the lwfspfs
// engine externalize the same bytes, in both directions, and both clamp
// reads at EOF. Only their timing may differ.
func TestSerialBaselineAndEngineAgree(t *testing.T) {
	spec := cluster.DevCluster().WithServers(4)
	spec.ComputeNodes = 1
	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	c := cl.NewClient(cl.DeployLWFS(), 0)
	err := runProc(cl.K, "app", func(p *sim.Proc) error {
		if err := c.Login(p, "app", "s3cret"); err != nil {
			return err
		}
		fs, err := lwfspfs.Format(p, c, "/volsp", lwfspfs.Options{StripeUnit: 16 << 10})
		if err != nil {
			return err
		}
		f, err := fs.Create(p, "/f")
		if err != nil {
			return err
		}
		serial := serialFile{c: c, caps: fs.Caps(), f: f}
		rng := rand.New(rand.NewSource(21))
		want := make([]byte, 220_000)
		// The engine writes (and sizes) the file; the baseline then
		// overwrites a range crossing several units and objects.
		for i := 0; i < 4; i++ {
			data := make([]byte, 70_000)
			rng.Read(data)
			copy(want[i*50_000:], data)
			if _, err := f.WriteAt(p, int64(i*50_000), netsim.BytesPayload(data)); err != nil {
				return err
			}
		}
		data := make([]byte, 90_000)
		rng.Read(data)
		copy(want[37_000:], data)
		if n, err := serial.WriteAt(p, 37_000, netsim.BytesPayload(data)); err != nil || n != 90_000 {
			t.Fatalf("serial write: n=%d err=%v", n, err)
		}
		for _, arm := range []struct {
			name string
			file stripeFile
		}{{"engine", f}, {"serial", serial}} {
			got, err := arm.file.ReadAt(p, 0, f.Size())
			if err != nil || !bytes.Equal(got.Data, want) {
				t.Fatalf("%s: whole-file read differs (err=%v)", arm.name, err)
			}
			// Read far past EOF: clamped to the logical size.
			got, err = arm.file.ReadAt(p, 200_000, 1<<20)
			if err != nil || got.Size != 20_000 || !bytes.Equal(got.Data, want[200_000:]) {
				t.Fatalf("%s: EOF read size %d err=%v, want 20000 bytes", arm.name, got.Size, err)
			}
			// Read starting at EOF: empty.
			if got, err = arm.file.ReadAt(p, 220_000, 10); err != nil || got.Size != 0 {
				t.Fatalf("%s: read at EOF: size=%d err=%v", arm.name, got.Size, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
