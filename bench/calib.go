package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"time"
)

// The calibration is a fixed piece of work that calls nothing in the
// library: JSON round trips and a sort of a fixed record. A traced run
// times it once per pass, after the forced collection that starts the
// pass, and reports the median as bench.calib_s: a reading of the host's
// speed during the run, against which a traced run's layer times can be
// compared with another's. No metric is scaled by it.

// calRecord is the calibration's data: a slice and a map, encoded to
// JSON, decoded and sorted.
type calRecord struct {
	IDs   []int
	Names map[string][]float64
}

// calibrate runs the calibration on the calling goroutine and returns its
// duration.
func calibrate() time.Duration {
	start := time.Now()
	rec := calRecord{IDs: make([]int, 0, 20000), Names: map[string][]float64{}}
	for i := 0; i < 20000; i++ {
		rec.IDs = append(rec.IDs, i*7919%20011)
	}
	for i := 0; i < 2000; i++ {
		rec.Names[strconv.Itoa(i*31)] = []float64{float64(i), float64(i) / 3}
	}
	for k := 0; k < 3; k++ {
		data, err := json.Marshal(rec)
		if err != nil {
			panic(err) // a fixed record of ints and floats always encodes
		}
		var out calRecord
		if err := json.Unmarshal(data, &out); err != nil {
			panic(err)
		}
		sort.Ints(out.IDs)
	}
	return time.Since(start)
}
