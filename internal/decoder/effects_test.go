package decoder

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"testing"

	"tiscc/internal/expr"
	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
)

// demCase is one experiment of the detector-space differential matrix.
type demCase struct {
	name      string
	prog      *orqcs.Program
	det       *Detectors
	outcome   expr.Expr
	reference bool
}

// demCases are memory d=3,5,7,9 and surgery d=3,5 (rounds = d); -short
// keeps d ≤ 5.
func demCases(t *testing.T) []demCase {
	t.Helper()
	var cases []demCase
	mems := []int{3, 5, 7, 9}
	if testing.Short() {
		mems = []int{3, 5}
	}
	for _, d := range mems {
		mem := mustMemory(t, d, d, pauli.Z)
		cases = append(cases, demCase{fmt.Sprintf("memory-d%d", d), mem.Prog, mustDetectors(t, mem), mem.Outcome, mem.Reference})
	}
	for _, d := range []int{3, 5} {
		s := mustSurgery(t, d, 1, d, 1, pauli.Z)
		cases = append(cases, demCase{fmt.Sprintf("surgery-d%d", d), s.Prog, mustSurgeryDetectors(t, s), s.Outcome, s.Reference})
	}
	return cases
}

// demModels are a dense uniform model and the paper's Table 5 model.
var demModels = []noise.Model{noise.Depolarizing(1e-2), noise.PaperTable5(hardware.Default())}

// TestDEMMatchesSampler checks the graph's retained effect table against
// the sampler exactly: on every batch the frame sampler runs, XORing the
// symptoms of the batch's firings (the decoded estimate's detector words,
// noise.Effects.Fire) must reproduce, bit for bit, the detector words
// Detectors.Fire reads off the batch's record words and the lanes on which
// the observable differs from its noiseless reference. It covers memory
// d=3..9 and surgery d=3,5 under a dense uniform model and the paper's
// Table 5 model, batches spread over one, two and four workers.
func TestDEMMatchesSampler(t *testing.T) {
	const shots, seed = 512, 11
	for _, c := range demCases(t) {
		for _, m := range demModels {
			sched := noise.Compile(m, c.prog)
			g := mustGraph(t, c.det, sched)
			sim, err := frame.New(c.prog, sched)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", c.name, m.Name, workers), func(t *testing.T) {
					var fires, obsFlips atomic.Int64
					err := orqcs.RunPool((shots+63)/64, workers, sim.NewBatch, func(b *frame.Batch, bi int) error {
						b.Run(64*bi, min(64, shots-64*bi), seed)
						p, words := b.Planes(), b.RecordWords()
						want := make([]uint64, c.det.NumDetectors())
						c.det.Fire(words, p.Lanes, want)
						wantObs := c.det.observable().EvalWords(words)
						if c.det.ObsRef {
							wantObs = ^wantObs
						}
						got, obs := g.eff.Fire(p)
						for di := range want {
							if got[di]&p.Lanes != want[di] {
								return fmt.Errorf("batch at %d detector %d: records fire lanes %#x, symptoms %#x", p.First, di, want[di], got[di]&p.Lanes)
							}
							fires.Add(int64(bits.OnesCount64(want[di])))
						}
						if obs&p.Lanes != wantObs&p.Lanes {
							return fmt.Errorf("batch at %d: records flip the observable on lanes %#x, symptoms %#x", p.First, wantObs&p.Lanes, obs&p.Lanes)
						}
						obsFlips.Add(int64(bits.OnesCount64(obs & p.Lanes)))
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if fires.Load() == 0 || obsFlips.Load() == 0 {
						t.Fatalf("%d detector fires, %d observable flips: the identity was never exercised", fires.Load(), obsFlips.Load())
					}
				})
			}
		}
	}
}

// TestDecodedEstimateMatchesRecordOracle is the estimate-level oracle for
// detector-space decoding: the production decoded estimate (fire-only
// batches, symptoms, union-find) must count exactly the errors of the
// record oracle — the same shots' frame records, each decoded by
// DecodeOutcome — with no raw fallback, at one and four workers. Its
// observer proves that no decoded batch walked the program: every batch
// arrives with the decoder's detector words, and the sampler counts no
// collapse multiplication (the walk's own counter) while a record run of
// the same shots does.
func TestDecodedEstimateMatchesRecordOracle(t *testing.T) {
	shots, seed := 1000, int64(5)
	if raceEnabled {
		shots = 200
	}
	models := []noise.Model{noise.Depolarizing(3e-3), noise.PaperTable5(hardware.Default())}
	for _, c := range demCases(t) {
		for _, m := range models {
			t.Run(c.name+"/"+m.Name, func(t *testing.T) {
				sched := noise.Compile(m, c.prog)
				g := mustGraph(t, c.det, sched)
				want := recordOracleErrors(t, c.prog, sched, g, c.reference, shots, seed)
				for _, workers := range []int{1, 4} {
					sim, err := frame.New(c.prog, sched)
					if err != nil {
						t.Fatal(err)
					}
					var walked atomic.Int64
					obs := observerFunc(func(p *noise.Planes, bad uint64) {
						if len(p.Dets) != c.det.NumDetectors() {
							walked.Add(1)
						}
					})
					res, err := noise.EstimateLogicalError(sched, c.outcome, c.reference,
						noise.Options{Shots: shots, Seed: seed, Workers: workers, Decoder: g, Sampler: sim, Observer: obs})
					if err != nil {
						t.Fatal(err)
					}
					if res.Shots != shots || res.Errors != want || res.RawFallbacks != 0 {
						t.Fatalf("workers=%d: decoded estimate %d/%d errors (%d fallbacks), record oracle %d/%d",
							workers, res.Errors, res.Shots, res.RawFallbacks, want, shots)
					}
					if n := walked.Load(); n != 0 {
						t.Fatalf("workers=%d: %d decoded batches lacked detector words", workers, n)
					}
					met := sim.Metrics()
					if met.Counter("shots") != uint64(shots) || met.Counter("collapse_mults") != 0 {
						t.Fatalf("workers=%d: sampler counted %d shots and %d collapse multiplications, want %d and 0",
							workers, met.Counter("shots"), met.Counter("collapse_mults"), shots)
					}
				}
			})
		}
	}
}

// recordOracleErrors counts the shots of [0, shots) whose frame records,
// decoded one by one through DecodeOutcome, disagree with the reference
// outcome. The record run must multiply collapse rows somewhere, or the
// fire-only run's zero would prove nothing.
func recordOracleErrors(t *testing.T, prog *orqcs.Program, sched *noise.Schedule, g *Graph, reference bool, shots int, seed int64) int {
	t.Helper()
	sim, err := frame.New(prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	b := sim.NewBatch()
	errs := 0
	for first := 0; first < shots; first += 64 {
		b.Run(first, min(64, shots-first), seed)
		for lane := range b.Planes().N {
			if g.DecodeOutcome(b.Records(lane)) != reference {
				errs++
			}
		}
	}
	if sim.Metrics().Counter("collapse_mults") == 0 {
		t.Fatal("the record run multiplied no collapse row")
	}
	return errs
}

// observerFunc adapts a function to noise.ShotObserver.
type observerFunc func(p *noise.Planes, bad uint64)

func (f observerFunc) ObserveBatch(p *noise.Planes, bad uint64) { f(p, bad) }
