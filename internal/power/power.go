// Package power models energy consumption of the recommendation-inference
// deployments. The paper motivates resource-efficient in-storage computing
// with power ("high power consumption often leads to high temperature,
// which could be detrimental to SSD lifetime") but reports no energy
// numbers; this package quantifies the comparison with first-order energy
// accounting over the simulator's operation counts.
//
// Unit costs are order-of-magnitude figures from the device-physics
// literature: NAND sensing a few microjoules per page, on-chip and bus
// transfers tens of picojoules per bit, fp32 MACs tens of picojoules on a
// low-end FPGA, and tens of watts of host CPU package power.
package power

import (
	"fmt"
	"time"
)

// Energy is measured in nanojoules.
type Energy float64

// Joules converts to joules.
func (e Energy) Joules() float64 { return float64(e) * 1e-9 }

// Microjoules converts to microjoules.
func (e Energy) Microjoules() float64 { return float64(e) * 1e-3 }

// String formats with an adaptive unit.
func (e Energy) String() string {
	switch {
	case e >= 1e9:
		return fmt.Sprintf("%.2f J", e.Joules())
	case e >= 1e6:
		return fmt.Sprintf("%.2f mJ", float64(e)*1e-6)
	case e >= 1e3:
		return fmt.Sprintf("%.2f uJ", e.Microjoules())
	default:
		return fmt.Sprintf("%.0f nJ", float64(e))
	}
}

// Unit energy costs.
const (
	// PageSenseEnergy is the cell-array sense + buffer flush energy of
	// one flash page read (~2 uJ for a 4 KiB page).
	PageSenseEnergy Energy = 2000
	// FlashBusEnergyPerByte is the channel-bus transfer energy
	// (~40 pJ/byte).
	FlashBusEnergyPerByte Energy = 0.04
	// PCIeEnergyPerByte is the host-interface transfer energy
	// (~60 pJ/byte including SerDes).
	PCIeEnergyPerByte Energy = 0.06
	// DRAMEnergyPerByte is the host-DRAM access energy (~20 pJ/byte).
	DRAMEnergyPerByte Energy = 0.02
	// FPGAMACEnergy is one fp32 multiply-accumulate on a low-end FPGA
	// (~30 pJ).
	FPGAMACEnergy Energy = 0.03
)

// Device power draws.
const (
	// HostCPUPower is the active package power of the host CPU (W).
	HostCPUPower = 65
	// FPGAStaticPower is the controller FPGA's static + clocking power (W).
	FPGAStaticPower = 3
	// SSDIdlePower is the rest of the SSD (controller, DRAM) (W).
	SSDIdlePower = 2
)

// ActiveEnergy returns duration x watts.
func ActiveEnergy(d time.Duration, watts float64) Energy {
	return Energy(d.Seconds() * watts * 1e9)
}

// Profile aggregates one inference's (or batch's) activity counts.
type Profile struct {
	// HostCPUTime is time the host CPU spends actively computing.
	HostCPUTime time.Duration
	// DeviceTime is wall time the SSD spends on the request (static
	// power accrues over it).
	DeviceTime time.Duration
	// FPGAActive is time the FPGA engines are busy.
	FPGAActive time.Duration

	FlashPageReads  int64 // whole-page senses
	FlashBytesMoved int64 // bytes over the flash channel buses
	PCIeBytes       int64 // bytes crossing the host interface
	HostDRAMBytes   int64 // bytes the host touches in DRAM
	MACs            int64 // fp32 multiply-accumulates on the FPGA
}

// Components is a profile's energy by component.
type Components struct {
	HostCPU    Energy // host CPU active power over HostCPUTime
	SSDStatic  Energy // the rest of the SSD over DeviceTime
	FPGAStatic Energy // FPGA static power over FPGAActive
	PageSense  Energy // flash page senses
	FlashBus   Energy // bytes over the flash channel buses
	PCIe       Energy // bytes over the host interface
	HostDRAM   Energy // bytes the host touches in DRAM
	MACs       Energy // fp32 multiply-accumulates on the FPGA
}

// Components returns the profile's energy by component. Each product is an
// explicit conversion, so no CPU fuses it into the sum that follows.
func (p Profile) Components() Components {
	return Components{
		HostCPU:    ActiveEnergy(p.HostCPUTime, HostCPUPower),
		SSDStatic:  ActiveEnergy(p.DeviceTime, SSDIdlePower),
		FPGAStatic: ActiveEnergy(p.FPGAActive, FPGAStaticPower),
		PageSense:  Energy(Energy(p.FlashPageReads) * PageSenseEnergy),
		FlashBus:   Energy(Energy(p.FlashBytesMoved) * FlashBusEnergyPerByte),
		PCIe:       Energy(Energy(p.PCIeBytes) * PCIeEnergyPerByte),
		HostDRAM:   Energy(Energy(p.HostDRAMBytes) * DRAMEnergyPerByte),
		MACs:       Energy(Energy(p.MACs) * FPGAMACEnergy),
	}
}

// Total returns the profile's total energy: its components summed in
// declaration order.
func (p Profile) Total() Energy {
	c := p.Components()
	return c.HostCPU + c.SSDStatic + c.FPGAStatic + c.PageSense + c.FlashBus + c.PCIe + c.HostDRAM + c.MACs
}

// Add merges two profiles.
func (p Profile) Add(o Profile) Profile {
	return Profile{
		HostCPUTime:     p.HostCPUTime + o.HostCPUTime,
		DeviceTime:      p.DeviceTime + o.DeviceTime,
		FPGAActive:      p.FPGAActive + o.FPGAActive,
		FlashPageReads:  p.FlashPageReads + o.FlashPageReads,
		FlashBytesMoved: p.FlashBytesMoved + o.FlashBytesMoved,
		PCIeBytes:       p.PCIeBytes + o.PCIeBytes,
		HostDRAMBytes:   p.HostDRAMBytes + o.HostDRAMBytes,
		MACs:            p.MACs + o.MACs,
	}
}
