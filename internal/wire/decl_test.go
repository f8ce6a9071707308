package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"rmssd/internal/array"
	"rmssd/internal/model"
)

// checkDeclBounds restates every bound an accepted decl must satisfy.
func checkDeclBounds(d ModelDecl) error {
	if _, err := model.ConfigByName(d.Model); err != nil || d.Name == "" {
		return fmt.Errorf("unresolved name %q or architecture %q", d.Name, d.Model)
	}
	if d.TableMB <= 0 || d.TableMB > 1<<20 || d.EVCacheMB < 0 || d.EVCacheMB > 1<<20 {
		return fmt.Errorf("budgets tableMB %d evCacheMB %d", d.TableMB, d.EVCacheMB)
	}
	if d.Shards < 1 || d.Queue < 1 || d.Weight < 1 || d.MaxBatch < 0 {
		return fmt.Errorf("shards %d queue %d weight %d maxBatch %d", d.Shards, d.Queue, d.Weight, d.MaxBatch)
	}
	if !(d.FaultRate >= 0 && d.FaultRate < 1) {
		return fmt.Errorf("faultRate %v", d.FaultRate)
	}
	if d.ArrayDevices < 0 || d.ArrayDevices > array.MaxDevices {
		return fmt.Errorf("arrayDevices %d", d.ArrayDevices)
	}
	if d.ArrayDevices > 1 && d.Partition != "range" && d.Partition != "hash" ||
		d.ArrayDevices <= 1 && d.Partition != "" {
		return fmt.Errorf("partition %q with arrayDevices %d", d.Partition, d.ArrayDevices)
	}
	return nil
}

// FuzzModelsConfig drives the -models decoder over arbitrary bytes. The
// contract: never panic; every accepted decl satisfies every bound under a
// unique name; and validation is idempotent, so re-encoding an accepted
// config and parsing it again yields the same decls. The seed corpus lives
// in testdata/fuzz/FuzzModelsConfig.
func FuzzModelsConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		mc, err := ParseModelsConfig(bytes.NewReader(doc))
		if err != nil {
			return
		}
		seen := make(map[string]bool, len(mc.Models))
		for i, d := range mc.Models {
			if err := checkDeclBounds(d); err != nil {
				t.Fatalf("accepted models[%d] out of bounds: %v\n%+v", i, err, d)
			}
			if seen[d.Name] {
				t.Fatalf("accepted duplicate name %q", d.Name)
			}
			seen[d.Name] = true
		}
		raw, err := json.Marshal(mc)
		if err != nil {
			t.Fatalf("accepted config does not re-encode: %v", err)
		}
		again, err := ParseModelsConfig(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-encoded config rejected: %v\n%s", err, raw)
		}
		if !reflect.DeepEqual(mc, again) {
			t.Fatalf("validate not idempotent:\n%+v\n%+v", mc, again)
		}
	})
}
