package core

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"embsan/internal/emu"
	"embsan/internal/guest/firmware"
	"embsan/internal/san"
)

// rewindFirmware are the deployments the rewind oracle covers: both
// instrumentation modes, the three ISA frontends, the one KASAN+KCSAN
// deployment and an RTOS.
var rewindFirmware = []struct {
	name       string
	sanitizers []string
}{
	{"OpenWRT-armvirt", []string{"kasan"}},         // ARM32E, EMBSAN-C
	{"OpenWRT-bcm63xx", []string{"kasan"}},         // MIPS32E, EMBSAN-D
	{"OpenWRT-x86_64", []string{"kasan", "kcsan"}}, // x86e
	{"InfiniTime", []string{"kasan"}},              // RTOS
}

// rewindBudget is the per-input instruction budget, the fuzzer's default;
// rewindSeed enables interleaving jitter.
const (
	rewindBudget = 2_000_000
	rewindSeed   = 1
)

// rewindRig is a booted, snapshotted deployment with the digest of its
// restore point and the outcome of one fixed input run from it.
type rewindRig struct {
	fw     *firmware.Firmware
	inst   *Instance
	seed   maphash.Seed
	digest uint64
	fixed  []byte
	want   ExecResult
	blocks []uint32 // entry PCs of the blocks the fixed input runs
}

func newRewindRig(name string, sanitizers []string) (*rewindRig, error) {
	fw, err := firmware.Build(name)
	if err != nil {
		return nil, err
	}
	inst, err := New(Config{
		Image: fw.Image, Sanitizers: sanitizers, StopOnReport: true,
		Machine: emu.Config{MaxHarts: 2, Seed: rewindSeed},
		KCSAN:   san.KCSANConfig{SampleInterval: 13, Delay: 600},
	})
	if err != nil {
		return nil, err
	}
	if err := inst.Boot(200_000_000); err != nil {
		return nil, err
	}
	inst.Snapshot()
	r := &rewindRig{fw: fw, inst: inst, seed: maphash.MakeSeed(), fixed: fw.Seeds[0]}
	for _, b := range fw.Bugs {
		if !b.NeedsKCSAN {
			r.fixed = b.Trigger
			break
		}
	}
	r.digest = r.state()
	prev := inst.Machine.SetCoverageHook(func(pc uint32) { r.blocks = append(r.blocks, pc) })
	r.want = r.runFixed()
	inst.Machine.SetCoverageHook(prev)
	return r, nil
}

// runFixed runs the fixed input from the restore point and rewinds. The
// interleaving RNG is not part of the restore point: a pooled machine is
// reseeded with it (Machine.Reseed), and so is this one.
func (r *rewindRig) runFixed() ExecResult {
	r.inst.Machine.Reseed(rewindSeed)
	res := r.inst.Exec(r.fixed, rewindBudget)
	r.inst.Restore()
	return res
}

// state digests what a rewind must restore, through the deployment's
// accessors: RAM, the shadow, the harts, the ready flags and the live
// KASAN chunks. The fixed input's outcome covers the rest of the KASAN
// state.
func (r *rewindRig) state() uint64 {
	m, rt := r.inst.Machine, r.inst.Runtime
	var h maphash.Hash
	h.SetSeed(r.seed)
	ram, _ := m.ReadBytes(emu.NullGuardSize, m.RAMSize()-emu.NullGuardSize)
	h.Write(ram)
	h.Write(rt.KASANEngine().Shadow().Bytes())
	for i := range m.NumHarts() {
		fmt.Fprintf(&h, "%+v\n", *m.Hart(i))
	}
	fmt.Fprintln(&h, m.ReadyReached, rt.Enabled(), rt.KASANEngine().LiveChunks())
	return h.Sum64()
}

// hostile runs one input and rewinds. A non-zero patch first overwrites
// the word at one of the fixed input's blocks with the word at another,
// as a debugger or a self-modifying guest writes text.
func (r *rewindRig) hostile(input []byte, patch uint32) {
	m := r.inst.Machine
	if n := uint32(len(r.blocks)); patch != 0 && n > 1 {
		dst, src := r.blocks[patch%n], r.blocks[(patch/n+1)%n]
		if word, err := m.ReadBytes(src, 4); err == nil {
			m.WriteBytes(dst, word)
		}
	}
	r.inst.Exec(input, rewindBudget)
	r.inst.Restore()
}

// check fails t unless the deployment is back at its restore point: the
// same digest, and the fixed input's outcome unchanged.
func (r *rewindRig) check(t testing.TB) {
	t.Helper()
	if r.state() != r.digest {
		t.Fatalf("%s: state after rewind differs from the snapshot", r.fw.Name)
	}
	if got := r.runFixed(); !reflect.DeepEqual(got, r.want) {
		t.Fatalf("%s: fixed input after rewind\n got %+v\nwant %+v", r.fw.Name, got, r.want)
	}
}

// hostileInput derives a seeded input from the firmware's seeds and bug
// triggers: mutated, spliced, or plain random bytes.
func hostileInput(rng *rand.Rand, fw *firmware.Firmware) []byte {
	pool := append([][]byte(nil), fw.Seeds...)
	for _, b := range fw.Bugs {
		pool = append(pool, b.Trigger)
	}
	var in []byte
	if rng.Intn(4) == 0 {
		in = make([]byte, rng.Intn(256))
		rng.Read(in)
		return in
	}
	in = append(in, pool[rng.Intn(len(pool))]...)
	for n := rng.Intn(8); n > 0 && len(in) > 0; n-- {
		switch rng.Intn(3) {
		case 0:
			in[rng.Intn(len(in))] = byte(rng.Intn(256))
		case 1:
			in = append(in, pool[rng.Intn(len(pool))]...)
		default:
			in = in[:rng.Intn(len(in))]
		}
	}
	return in
}

// TestDeploymentRewind is the whole-deployment rewind oracle: after each
// of a run of hostile inputs, each followed by Restore, a deployment is
// back at its snapshot, and a fixed input behaves exactly as it did the
// first time.
func TestDeploymentRewind(t *testing.T) {
	k := 64
	if testing.Short() {
		k = 16
	}
	for _, d := range rewindFirmware {
		t.Run(d.name, func(t *testing.T) {
			r, err := newRewindRig(d.name, d.sanitizers)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for range k {
				patch := uint32(0)
				if rng.Intn(4) == 0 {
					patch = rng.Uint32() | 1
				}
				r.hostile(hostileInput(rng, r.fw), patch)
				r.check(t)
			}
		})
	}
}

// fuzzRig is FuzzDeploymentRewind's deployment, booted once per process.
var fuzzRig = sync.OnceValues(func() (*rewindRig, error) {
	return newRewindRig("InfiniTime", []string{"kasan"})
})

// FuzzDeploymentRewind runs the rewind oracle on InfiniTime with fuzzed
// inputs and text patches.
func FuzzDeploymentRewind(f *testing.F) {
	fw, err := firmware.Build("InfiniTime")
	if err != nil {
		f.Fatal(err)
	}
	for i, s := range fw.Seeds {
		f.Add(s, uint32(i))
	}
	for _, b := range fw.Bugs {
		f.Add(b.Trigger, uint32(0))
	}
	var mu sync.Mutex
	f.Fuzz(func(t *testing.T, input []byte, patch uint32) {
		r, err := fuzzRig()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		r.hostile(input, patch)
		r.check(t)
	})
}
