package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// slowUnderShort are the experiments -short skips: each takes several
// seconds even at -quick. Without -short every experiment stays pinned.
var slowUnderShort = map[string]bool{"redstorm": true, "ckptinterval": true, "replay": true}

// TestQuickGolden runs every experiment once at -quick and checks both
// renderings: the plain output byte for byte against testdata/<name>.golden,
// and, for the experiments that capture registry snapshots, the sha256 of
// the -metrics output against testdata/metrics.sha256. Virtual time is
// deterministic, so any difference is a behaviour change. After an
// intended change, regenerate from the repository root:
//
//	for n in table1 table2 fig9 fig10 petaflop security filtering faults burst recovery stripe rebuild meta qos redstorm ckptinterval replay collective; do
//		go run ./cmd/lwfsbench -experiment $n -quick > cmd/lwfsbench/testdata/$n.golden
//	done
//	for n in burst recovery rebuild meta qos redstorm ckptinterval replay; do
//		echo "$(go run ./cmd/lwfsbench -experiment $n -quick -metrics | sha256sum | cut -c1-64)  $n"
//	done > cmd/lwfsbench/testdata/metrics.sha256
func TestQuickGolden(t *testing.T) {
	digests := readDigests(t, filepath.Join("testdata", "metrics.sha256"))
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && slowUnderShort[e.name] {
				t.Skip("slow at -quick; run without -short")
			}
			want, err := os.ReadFile(filepath.Join("testdata", e.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.run(config{quick: true})
			if err != nil {
				t.Fatal(err)
			}
			var plain, full bytes.Buffer
			res.write(&plain, false)
			if got := plain.String(); got != string(want) {
				t.Errorf("-quick output differs from testdata/%s.golden:\n--- got ---\n%s--- want ---\n%s", e.name, got, want)
			}
			res.write(&full, true)
			sum := sha256.Sum256(full.Bytes())
			if wantSum, pinned := digests[e.name]; pinned {
				if got := hex.EncodeToString(sum[:]); got != wantSum {
					t.Errorf("-quick -metrics output sha256 = %s, want %s", got, wantSum)
				}
			} else if full.Len() != plain.Len() {
				t.Errorf("-metrics adds output but no digest is pinned in testdata/metrics.sha256")
			}
		})
	}
}

// readDigests parses sha256sum-style "<hex>  <name>" lines.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBadInput: malformed command lines exit 2 with a one-line message
// and run nothing.
func TestBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the message
	}{
		{[]string{"-experiment", "fig11"}, `unknown experiment "fig11"`},
		{[]string{"-experiment", "fig9", "-servers", "0"}, `-servers: "0"`},
		{[]string{"-experiment", "replay", "-clients", "0"}, `-clients: "0"`},
		{[]string{"-experiment", "fig10", "-clients", "-4"}, `-clients: "-4"`},
		{[]string{"-experiment", "fig9", "-servers", "2,x"}, `-servers: "x"`},
		{[]string{"-experiment", "fig9", "-trials", "-1"}, "must not be negative"},
		{[]string{"-experiment", "stripe", "-mb-per-proc", "-8"}, "must not be negative"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "lwfsbench: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr = %q, want one line containing %q", tc.args, msg, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q to stdout", tc.args, stdout.String())
		}
	}
	// The unknown-name message lists every valid name.
	var stderr bytes.Buffer
	run([]string{"-experiment", "nope"}, &bytes.Buffer{}, &stderr)
	for _, e := range experiments {
		if !strings.Contains(stderr.String(), e.name) {
			t.Errorf("unknown-experiment message %q does not list %q", stderr.String(), e.name)
		}
	}
}
