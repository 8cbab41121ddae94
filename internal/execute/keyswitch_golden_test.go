package execute_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"eva/internal/analysis"
	"eva/internal/apps"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/lang"
)

// goldenDigests reads testdata/keyswitch_alpha1.golden and, prefixing its
// names with "fused:", testdata/keyswitch_fused.golden: "name digest" lines,
// the name being everything before the last space.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	golden := map[string]string{}
	for file, prefix := range map[string]string{"keyswitch_alpha1.golden": "", "keyswitch_fused.golden": "fused:"} {
		f, err := os.Open(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
				golden[prefix+line[:i]] = line[i+1:]
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return golden
}

// TestKeySwitchDigitSizeOneMatchesParent shows that hybrid key switching with
// one special prime is the construction it replaced, not an approximation of
// it: on plan_diff_test's corpus, with the compiler's digit-size choice
// overridden to 1 and run as the reference lowering (fixture.runReference),
// keys, inputs and every output ciphertext are byte-identical to what the
// commit with the per-prime key switch produced (digests recorded there, see
// the golden file); the differential tests show that the program as compiled
// produces the same bytes unless it defers mod-downs. For the programs that
// do, the digest of its run is pinned too (keyswitch_fused.golden). Digit sizes above 1
// compute a different — equally valid — lift of each digit, so their outputs
// differ in the noise bits; TestKeySwitchNoise in internal/ckks bounds that.
func TestKeySwitchDigitSizeOneMatchesParent(t *testing.T) {
	golden := goldenDigests(t)
	check := func(name string, prog *core.Program, in execute.Inputs) {
		t.Run(name, func(t *testing.T) {
			res := compileInsecure(t, prog, compile.DefaultOptions())
			res.Plan.SpecialBits = []int{analysis.SpecialPrimeLog}
			f := newFixture(t, res, in, 41)
			sequential := execute.RunOptions{Scheduler: execute.SchedulerSequential, Workers: 1}
			compare := func(name string, out *execute.Outputs) {
				ser := serialized(t, out)
				names := make([]string, 0, len(ser))
				for n := range ser {
					names = append(names, n)
				}
				sort.Strings(names)
				h := sha256.New()
				for _, n := range names {
					h.Write([]byte(n))
					h.Write(ser[n])
				}
				got := hex.EncodeToString(h.Sum(nil))
				if want, ok := golden[name]; !ok {
					t.Errorf("no golden digest recorded; got\n%s %s", name, got)
				} else if got != want {
					t.Errorf("%s: outputs digest %s, the recorded one is %s", name, got, want)
				}
			}
			compare(name, f.runReference(t, sequential))
			if defers(res) {
				compare("fused:"+name, f.run(t, sequential))
			}
		})
	}

	sources, err := filepath.Glob("../../examples/*/*.eva")
	if err != nil || len(sources) == 0 {
		t.Fatalf("no example sources found (%v)", err)
	}
	for _, path := range sources {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.ParseProgram(string(src))
		if err != nil {
			t.Fatal(err)
		}
		check(filepath.Base(path), prog, randomInputs(prog, 5))
	}
	suite, err := apps.Suite(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range suite {
		check("app:"+app.Name, app.Program, app.MakeInputs(rand.New(rand.NewSource(6))))
	}
	if !raceEnabled {
		prog, image := benchSqueezeNet(t)
		check("nn:squeezenet-bench", prog, image)
	}
}
