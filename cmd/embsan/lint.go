package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"embsan/internal/guest/firmware"
	"embsan/internal/guest/mystery"
	"embsan/internal/isa"
	"embsan/internal/kasm"
	"embsan/internal/static"
	"embsan/internal/static/rehost"
)

// lintMain implements `embsan lint`: a static audit of a built image. It
// exits non-zero if any image produces a diagnostic, printing each one in
// symbol-addressed form so a toolchain regression can be located without
// booting the firmware.
func lintMain(args []string) {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	var (
		fwName    = fs.String("firmware", "", "bundled Table 1 firmware name")
		imagePath = fs.String("image", "", "path to an encoded firmware image")
		all       = fs.Bool("all", false, "lint every registry firmware (EMBSAN-C where the board supports it)")
		selftest  = fs.Bool("selftest", false, "verify the linter catches a deliberately broken build")
		rehostAud = fs.Bool("rehost", false, "re-derive the MMIO map from the image and diff it against a recorded rehost profile")
		profile   = fs.String("profile", "", "recorded rehost profile (text) for -rehost")
		racesAud  = fs.Bool("races", false, "run the lockset/shared-state race triage")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: embsan lint -firmware NAME | -image FILE | -all | -selftest")
		fmt.Fprintln(os.Stderr, "       embsan lint -rehost -image FILE -profile FILE | -rehost -selftest")
		fmt.Fprintln(os.Stderr, "       embsan lint -races -firmware NAME | -races -image FILE | -races -all")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if *racesAud {
		switch {
		case *all:
			racesAll()
		case *fwName != "":
			fw, err := firmware.Build(*fwName)
			if err != nil {
				fatal(err)
			}
			exitCode(racesImage(fw.Image, raceExpected(fw)))
		case *imagePath != "":
			raw, err := os.ReadFile(*imagePath)
			if err != nil {
				fatal(err)
			}
			img, err := kasm.DecodeImage(raw)
			if err != nil {
				fatal(err)
			}
			exitCode(racesImage(img, false))
		default:
			fs.Usage()
			os.Exit(2)
		}
		return
	}

	if *rehostAud {
		switch {
		case *selftest:
			rehostSelftest()
		case *imagePath != "" && *profile != "":
			raw, err := os.ReadFile(*imagePath)
			if err != nil {
				fatal(err)
			}
			img, err := kasm.DecodeImage(raw)
			if err != nil {
				fatal(err)
			}
			recorded, err := os.ReadFile(*profile)
			if err != nil {
				fatal(err)
			}
			exitCode(rehostAudit(img, string(recorded)))
		default:
			fs.Usage()
			os.Exit(2)
		}
		return
	}

	switch {
	case *selftest:
		lintSelftest()
	case *all:
		lintAll()
	case *fwName != "":
		fw, err := firmware.Build(*fwName)
		if err != nil {
			fatal(err)
		}
		exitCode(lintImage(fw.Image))
	case *imagePath != "":
		raw, err := os.ReadFile(*imagePath)
		if err != nil {
			fatal(err)
		}
		img, err := kasm.DecodeImage(raw)
		if err != nil {
			fatal(err)
		}
		exitCode(lintImage(img))
	default:
		fs.Usage()
		os.Exit(2)
	}
}

func exitCode(bad int) {
	if bad > 0 {
		os.Exit(1)
	}
}

// lintImage audits one image and prints its diagnostics; returns the count.
// Images without EMBSAN-C link metadata (EMBSAN-D builds, stripped or
// rehosted binaries) are not an error: the metadata-dependent rules are
// skipped with an explicit note, so a clean verdict is never mistaken for a
// full instrumentation audit.
func lintImage(img *kasm.Image) int {
	diags, err := static.Lint(img)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Printf("%s: %s\n", img.Name, d)
	}
	skips := static.LintSkips(img)
	for _, sk := range skips {
		fmt.Printf("%s: note: skipped %s\n", img.Name, sk)
	}
	if len(diags) == 0 {
		verdict := "clean"
		if len(skips) > 0 {
			verdict = "clean (universal checks only)"
		}
		fmt.Printf("%s: %s (%s, %s)\n", img.Name, verdict, img.Arch, img.Meta.Sanitize)
	}
	return len(diags)
}

// rehostAudit re-lifts the image with the static rehosting pass and diffs
// the fresh profile against the recorded one, flagging every divergence —
// the check that a committed profile (or a generated device stub built from
// it) still describes the binary it claims to.
func rehostAudit(img *kasm.Image, recorded string) int {
	p, err := rehost.Lift(img)
	if err != nil {
		fatal(err)
	}
	if err := p.Validate(); err != nil {
		fatal(err)
	}
	bad := diffLines(img.Name, recorded, p.Render())
	if bad == 0 {
		fmt.Printf("%s: rehost profile matches the image\n", img.Name)
	}
	return bad
}

// diffLines prints a line-level diff of the recorded vs re-derived profile
// and returns the number of divergent lines.
func diffLines(name, recorded, fresh string) int {
	rec := strings.Split(strings.TrimRight(recorded, "\n"), "\n")
	got := strings.Split(strings.TrimRight(fresh, "\n"), "\n")
	bad := 0
	for i := 0; i < len(rec) || i < len(got); i++ {
		var r, g string
		if i < len(rec) {
			r = rec[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if r != g {
			bad++
			fmt.Printf("%s: rehost-divergence: line %d: recorded %q, image yields %q\n", name, i+1, r, g)
		}
	}
	return bad
}

// rehostSelftest proves the divergence audit catches a tampered profile: a
// fresh lift must match itself, and a role flip in the recorded text must
// be flagged.
func rehostSelftest() {
	fw, err := mystery.Build("rehost-selftest", isa.ArchX86E)
	if err != nil {
		fatal(err)
	}
	p, err := rehost.Lift(fw.Image)
	if err != nil {
		fatal(err)
	}
	good := p.Render()
	if bad := diffLines(fw.Image.Name, good, p.Render()); bad != 0 {
		fatal(fmt.Errorf("rehost selftest: audit flagged %d divergences on an untouched profile", bad))
	}
	tampered := strings.Replace(good, "rx-status", "boot-status", 1)
	if tampered == good {
		fatal(fmt.Errorf("rehost selftest: could not tamper the profile"))
	}
	if bad := diffLines(fw.Image.Name, tampered, p.Render()); bad == 0 {
		fatal(fmt.Errorf("rehost selftest: audit missed a tampered register role"))
	}
	fmt.Println("rehost selftest: divergence audit catches a tampered profile")
}

// lintAll audits every registry firmware, rebuilt as EMBSAN-C when the
// board is open-source; the closed TP-Link image is linted as shipped.
func lintAll() {
	bad := 0
	for _, name := range firmware.Names {
		fw, err := firmware.BuildVariant(name, kasm.SanEmbsanC)
		if err != nil {
			// Closed-source boards only exist uninstrumented.
			fw, err = firmware.Build(name)
			if err != nil {
				fatal(err)
			}
		}
		bad += lintImage(fw.Image)
	}
	exitCode(bad)
}

// lintSelftest proves the audit has teeth: a clean EMBSAN-C build must lint
// clean, and the same image with one hypercall probe dropped and one global
// redzone zeroed must fail with addressed diagnostics.
func lintSelftest() {
	fw, err := firmware.BuildVariant("OpenWRT-armvirt", kasm.SanEmbsanC)
	if err != nil {
		fatal(err)
	}
	img := fw.Image
	if n := lintImage(img); n != 0 {
		fatal(fmt.Errorf("selftest: clean build produced %d diagnostics", n))
	}

	broken := *img
	broken.Name = img.Name + "+broken"
	broken.Text = append([]byte(nil), img.Text...)
	dropped := false
	for pc := broken.Base; pc < broken.TextEnd(); pc += 4 {
		in, err := isa.Decode(broken.Arch.Word(broken.Text[pc-broken.Base:]), broken.Arch)
		if err != nil || in.Op != isa.OpSANCK {
			continue
		}
		w, err := isa.Encode(isa.Inst{Op: isa.OpFENCE}, broken.Arch)
		if err != nil {
			fatal(err)
		}
		broken.Arch.PutWord(broken.Text[pc-broken.Base:], w)
		dropped = true
		break
	}
	if !dropped {
		fatal(fmt.Errorf("selftest: EMBSAN-C image contains no hypercall probe"))
	}
	broken.Meta.Globals = append([]kasm.GlobalMeta(nil), img.Meta.Globals...)
	if len(broken.Meta.Globals) > 0 {
		broken.Meta.Globals[0].Redzone = 0
	}
	if n := lintImage(&broken); n == 0 {
		fatal(fmt.Errorf("selftest: broken build linted clean"))
	}
	fmt.Println("selftest: broken build failed as expected")
}
