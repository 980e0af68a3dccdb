package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"rpm"
)

// Ref is one trained model's recorded outcome.
type Ref struct {
	Fingerprint string `json:"fingerprint"`
	TestErrors  int    `json:"test_errors"`
	TestSize    int    `json:"test_size"`
}

// references maps GOARCH → section → dataset → Ref. Floating-point
// contraction differs between architectures, so each records its own.
type references map[string]map[string]map[string]Ref

//go:embed reference.json
var referenceJSON []byte

// refs is the recorded file; it is embedded, so it fails to parse only
// through a bug.
var refs = func() references {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		panic(fmt.Sprintf("perfbench: reference.json: %v", err))
	}
	return r
}()

// printReference trains every model the benchmark checks and prints
// their outcomes for this GOARCH, merged into the recorded file.
func printReference(w io.Writer) error {
	sections := map[string]map[string]Ref{}
	record := func(section string, sp rpm.Split, m model) error {
		fp, err := fingerprint(m, sp.Test, 1)
		if err != nil {
			return err
		}
		if sections[section] == nil {
			sections[section] = map[string]Ref{}
		}
		sections[section][sp.Name] = Ref{fp, testErrors(m.PredictBatch(sp.Test), sp.Test), len(sp.Test)}
		return nil
	}
	for _, spec := range []trainSpec{exhaustiveSpec, sampledSpec} {
		o := spec.opts()
		o.Workers = nproc() // models are byte-identical for every Workers value
		for _, name := range spec.sets {
			sp := rpm.GenerateDataset(name, dataSeed)
			m, err := spec.train(sp.Train, o)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if err := record(spec.key, sp, m); err != nil {
				return err
			}
		}
	}
	fx, err := newAppendFixture(1)
	if err != nil {
		return err
	}
	if err := record("fixture", rpm.GenerateDataset("SynCinCECG", dataSeed), fx.clf); err != nil {
		return err
	}
	out := references{runtime.GOARCH: sections}
	for arch, s := range refs {
		if arch != runtime.GOARCH {
			out[arch] = s
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
