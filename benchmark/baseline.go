package main

// Quality floors: the lowest final_accuracy each workload's quality pass read
// over data seeds 1..20 on the commit that introduced the benchmark, less
// 0.05. A pass under its floor fails the workload, whatever its speed.
// (BENCHMARK.json has no key for these, so they are recorded here; the
// measured values are in BASELINE.md.)
const (
	table5QualityFloor   = 0.7181 - 0.05 // 30 rounds; 0.718–0.774 over the seeds
	pipelineQualityFloor = 0.4362 - 0.05 // 30 rounds; 0.436–0.509
	nodeQualityFloor     = 0.5969 - 0.05 // 100 rounds of light training; 0.597–0.696
	scaleQualityFloor    = 0.8822 - 0.05 // 1 − RelErr after 2 rounds; 0.882–0.939
)
