// Package edgepulse is a from-scratch Go reproduction of "Edge Impulse:
// An MLOps Platform for Tiny Machine Learning" (MLSys 2023): an
// end-to-end TinyML MLOps platform with signed data ingestion, DSP
// feature extraction, neural network training, int8 quantization, an
// EON-style model compiler, device latency/memory simulation, AutoML
// (EON Tuner), performance calibration, deployment packaging and a
// versioned REST API with a typed Go client — all in stdlib-only Go.
//
// Layout:
//
//   - internal/core       — the impulse (input → DSP → learn dataflow);
//     Impulse.Run is the one window pipeline, which every classify path
//     (API single and batch, stream sessions, the EIM runner, ei-run)
//     runs
//   - internal/dsp, fft   — feature extraction blocks
//   - internal/nn, models, trainer — networks and training
//   - internal/quant, tflm, eon    — int8 quantization and the two engines
//   - internal/device, renode, profiler — on-device estimation
//   - internal/tuner, search, ga, calibration — AutoML and tuning
//   - internal/data, ingest, cbor, wav — the data plane; data serves
//     lazy, header-indexed datasets that stream signals on demand
//   - internal/store    — the durable segmented dataset storage engine
//     and crash-safe upload spool (byte-level spec in docs/STORAGE.md)
//   - internal/project, jobs, api — the MLOps service layer; api/v1
//     declares the typed DTO contract of the versioned REST surface
//   - internal/stream   — the live streaming inference plane: sessions,
//     ring buffers, rolling classification, debounced detections
//   - internal/client   — the first-class Go client for the v1 API,
//     used by cmd/ei-cli and cmd/ei-daemon (see docs/API.md)
//   - internal/resilience, faults — the daemon-wide resilience layer:
//     admission gate, deadline budgets, health/readiness, job
//     watchdog, shared retry primitives, and the build-tag-free
//     chaos fault-injection registry
//   - internal/deploy, eim — deployment artifacts and the EIM runner (the EIM
//     itself is core's impulse artefact)
//   - internal/bench, report — the paper's tables and figures
//   - internal/fleet, e2e — the verification plane: the macro load
//     harness (synthetic device fleets, SLO gates; see
//     docs/LOADTEST.md) and the end-to-end suite that
//     boots real platform instances and asserts the platform contract
//
// Entry points: cmd/ei-studio (REST server: standalone, cluster shard
// worker or read-only follower), cmd/ei-gateway (the cluster's
// project-sharded front door), cmd/ei-cli (client), cmd/ei-daemon
// (device bridge), cmd/ei-run (EIM runner), cmd/ei-bench (regenerate
// the paper's evaluation), cmd/ei-fleet (macro load harness). Performance is measured by the end-to-end benchmark in
// benchmark/. See README.md for a quickstart and docs/ARCHITECTURE.md
// for the package map and data flow.
package edgepulse

// Version identifies this reproduction build.
const Version = "1.0.0"
