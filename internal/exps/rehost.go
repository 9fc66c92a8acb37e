package exps

import (
	"fmt"

	"embsan/internal/emu"
	"embsan/internal/guest/firmware"
	"embsan/internal/guest/mystery"
	"embsan/internal/isa"
	"embsan/internal/static/rehost"
)

// RehostArches lists the frontends the mystery image is lifted on — the
// rehosted campaign family runs one campaign per frontend, mirroring how
// the registry covers each frontend with real boards.
var RehostArches = []isa.Arch{isa.ArchARM32E, isa.ArchMIPS32E, isa.ArchX86E}

// RehostNames lists the rehosted campaign family in table order. The family
// is deliberately NOT part of firmware.Names: the registry is the paper's
// Table 1, and the mystery guest exists to prove the lifting pipeline, not
// to pad the table.
func RehostNames() []string {
	names := make([]string, len(RehostArches))
	for i, a := range RehostArches {
		names[i] = "Mystery-" + a.String()
	}
	return names
}

// BuildRehosted runs the full static rehosting pipeline on one frontend:
// build the mystery guest, throw away everything but the stripped image,
// lift it, and wrap the result as a registry-shaped firmware whose machine
// config carries the synthesized bridge device. Everything downstream
// (probing, warm-up, campaigns) then treats it exactly like any
// other closed EMBSAN-D firmware. The seeded-bug list and corpus come from
// the guest's ground truth — they describe what a campaign should find, not
// how to boot the image, so using them does not leak into the lift.
func BuildRehosted(arch isa.Arch) (*firmware.Firmware, *rehost.Profile, error) {
	name := "Mystery-" + arch.String()
	fw, err := mystery.Build(name, arch)
	if err != nil {
		return nil, nil, err
	}
	p, err := rehost.Lift(fw.Image)
	if err != nil {
		return nil, nil, fmt.Errorf("exps: rehost %s: %w", name, err)
	}
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("exps: rehost %s: %w", name, err)
	}
	out := &firmware.Firmware{
		Name: name, BaseOS: "Unknown (rehosted)", Arch: arch,
		InstMode: "EmbSan-D", SourceOpen: false, Fuzzer: "Tardis",
		Frontend: firmware.FrontendBytes,
		Image:    fw.Image,
		Seeds:    fw.Seeds,
		Machine:  emu.Config{Devices: []emu.DeviceFactory{rehost.Device(p)}},
	}
	for _, b := range fw.Bugs {
		out.Bugs = append(out.Bugs, firmware.Bug{
			Fn: b.Fn, Location: b.Location, Type: b.Type, Trigger: b.Trigger,
		})
	}
	return out, p, nil
}

// BuildAllRehosted lifts the mystery image on every frontend.
func BuildAllRehosted() ([]*firmware.Firmware, error) {
	out := make([]*firmware.Firmware, 0, len(RehostArches))
	for _, a := range RehostArches {
		fw, _, err := BuildRehosted(a)
		if err != nil {
			return nil, err
		}
		out = append(out, fw)
	}
	return out, nil
}

// RunRehostCampaigns fuzzes the rehosted family on the parallel executor.
// The deployments run through the identical closed-source pipeline as the
// TP-Link campaigns — behavioural allocator probing, EMBSAN-D attachment,
// snapshot-pooled workers — with the lifted bridge as the only extra piece,
// and the merged result is bit-identical for every worker count.
func RunRehostCampaigns(opts CampaignOptions) (*CampaignRun, error) {
	fws, err := BuildAllRehosted()
	if err != nil {
		return nil, err
	}
	return RunCampaignSet(fws, opts)
}
