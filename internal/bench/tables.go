package bench

import (
	"fmt"
	"strings"

	"rmssd/internal/engine"
	"rmssd/internal/model"
	"rmssd/internal/params"
)

// Table2 prints the emulated SSD settings (paper Table II).
func Table2() *Table {
	t := &Table{
		Title:  "Table II: performance and settings of the emulated SSD",
		Header: []string{"Setting", "Value"},
	}
	t.AddRow("Capacity", "32 GB")
	t.AddRow("#Channels", fmt.Sprintf("%d", params.NumChannels))
	t.AddRow("Dies per channel", fmt.Sprintf("%d (calibrated; see params)", params.DiesPerChannel))
	t.AddRow("Random 4K read", fmt.Sprintf("%d IOPS (QD1)", params.Random4KIOPS))
	t.AddRow("Latency Tpage", params.TPage.String())
	t.AddRow("Page read delay Cpage", fmt.Sprintf("%d cycles", params.PageReadCycles))
	t.AddRow("EV read delay C_EV(128B)", fmt.Sprintf("%d cycles (0.293*EVsize+2800)", params.EVReadCycles(128)))
	t.AddRow("EV read delay C_EV(256B)", fmt.Sprintf("%d cycles", params.EVReadCycles(256)))
	t.AddRow("FPGA clock", "200 MHz (5 ns/cycle)")
	return t
}

// Table3 prints the model zoo with computed MLP sizes (paper Table III).
func Table3() *Table {
	t := &Table{
		Title:  "Table III: architectural features of the models",
		Header: []string{"Model", "Bottom MLP", "Top MLP", "DIM", "Tables", "Lookups", "MLP size"},
	}
	for _, cfg := range model.AllConfigs() {
		bottom := fmt.Sprintf("%d", cfg.DenseDim)
		for _, w := range cfg.BottomMLP {
			bottom += fmt.Sprintf("-%d", w)
		}
		if len(cfg.BottomMLP) == 0 {
			if cfg.DenseDim == 0 {
				bottom = "-"
			} else {
				bottom = fmt.Sprintf("%d (passthrough)", cfg.DenseDim)
			}
		}
		top := fmt.Sprintf("%d", cfg.TopInputDim())
		for _, w := range cfg.TopMLP {
			top += fmt.Sprintf("-%d", w)
		}
		t.AddRow(cfg.Name, bottom, top,
			fmt.Sprintf("%d", cfg.EVDim),
			fmt.Sprintf("%d", cfg.Tables),
			fmt.Sprintf("%d", cfg.Lookups),
			fmt.Sprintf("%.2fMB", float64(cfg.MLPWeightBytes())/(1<<20)))
	}
	t.Notes = append(t.Notes,
		"paper reports 0.39/1.23/12.23 MB for RMC1/2/3; bottom-MLP strings are input-inclusive")
	return t
}

// Table5 prints the kernel sizes chosen by the search (paper Table V).
func Table5() *Table {
	t := &Table{
		Title:  "Table V: kernel size of each layer (searched)",
		Header: []string{"Model", "Layer", "Kernel (kr x kc)", "Weights", "Cycles"},
	}
	for _, name := range []string{"RMC1", "RMC2", "RMC3", "NCF", "WnD"} {
		cfg, err := model.ConfigByName(name)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		m := modelFor(cfg)
		e, err := engine.NewMLPEngine(m, engine.DesignSearched, params.XCVU9P)
		if err != nil {
			t.AddRow(name, "-", "search failed: "+err.Error(), "-", "-")
			continue
		}
		for _, k := range e.Kernels() {
			loc := "BRAM"
			if k.InDRAM {
				loc = "DRAM"
			}
			t.AddRow(name, k.Layer, fmt.Sprintf("%dx%d", k.Kr, k.Kc), loc, fmt.Sprintf("%d", k.Cycles))
		}
		t.AddRow(name, "(NBatch)", fmt.Sprintf("%d", e.NBatch), "-", "-")
	}
	t.Notes = append(t.Notes,
		"paper Table V: RMC1/2 = 4x2,2x4,-,4x2,4x2,2x4,4; RMC3 = 16x8,8x2,2x4,4x2,4x2,2x4,4")
	return t
}

// Table6 prints the MLP engine resource consumption per design against both
// FPGA budgets (paper Table VI).
func Table6() *Table {
	t := &Table{
		Title:  "Table VI: resource consumption of the MLP Acceleration Engine",
		Header: []string{"Model", "Unit", "LUT", "FF", "BRAM", "DSP", "fits XCVU9P", "fits XC7A200T"},
	}
	// The rows print the XCVU9P build; the XC7A200T column re-runs the
	// kernel search for that part, whose build the note gives where it
	// differs.
	var smallBuilds []string
	for _, name := range []string{"RMC1", "RMC2", "RMC3"} {
		cfg, err := model.ConfigByName(name)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		m := modelFor(cfg)
		for _, d := range []engine.Design{engine.DesignNaive, engine.DesignDefault, engine.DesignSearched} {
			big, err := engine.NewMLPEngine(m, d, params.XCVU9P)
			if err != nil {
				t.AddRow(name, d.String(), "-", "-", "-", "-", "no ("+err.Error()+")", "-")
				continue
			}
			r := big.Resources()
			fitsSmall := "yes"
			small, err := engine.NewMLPEngine(m, d, params.XC7A200T)
			if err != nil || !small.FitsPart() {
				fitsSmall = "no"
			}
			if err == nil {
				if sr := small.Resources(); sr != r {
					smallBuilds = append(smallBuilds, fmt.Sprintf("%s %s %d/%d/%.1f/%d",
						name, d, sr.LUT, sr.FF, sr.BRAM, sr.DSP))
				}
			}
			fitsBig := "yes"
			if !big.FitsPart() {
				fitsBig = "no"
			}
			t.AddRow(name, d.String(),
				fmt.Sprintf("%d", r.LUT), fmt.Sprintf("%d", r.FF),
				fmt.Sprintf("%.1f", r.BRAM), fmt.Sprintf("%d", r.DSP),
				fitsBig, fitsSmall)
		}
	}
	t.AddRow("budget", params.XCVU9P.Name,
		fmt.Sprintf("%d", params.XCVU9P.LUT), fmt.Sprintf("%d", params.XCVU9P.FF),
		fmt.Sprintf("%.0f", params.XCVU9P.BRAM), fmt.Sprintf("%d", params.XCVU9P.DSP), "-", "-")
	t.AddRow("budget", params.XC7A200T.Name,
		fmt.Sprintf("%d", params.XC7A200T.LUT), fmt.Sprintf("%d", params.XC7A200T.FF),
		fmt.Sprintf("%.0f", params.XC7A200T.BRAM), fmt.Sprintf("%d", params.XC7A200T.DSP), "-", "-")
	if len(smallBuilds) > 0 {
		t.Notes = append(t.Notes, "XC7A200T builds (LUT/FF/BRAM/DSP) where they differ from the row's XCVU9P build: "+
			strings.Join(smallBuilds, "; "))
	}
	t.Notes = append(t.Notes,
		"paper: RMC1/2 naive 154541/59032/237/612, op 19064/8294/85/41; RMC3 naive exceeds XC7A200T LUT")
	return t
}
