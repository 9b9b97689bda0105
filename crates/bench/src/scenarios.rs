//! The scenario registry: every table and figure of the evaluation as
//! a declarative [`Scenario`], plus the `throughput` self-measurement.
//!
//! Each scenario's `render` reproduces — byte for byte — the stdout of
//! the per-figure binary it replaced (goldens are committed under
//! `results/`). Heavy sweeps are decomposed into grid cells so the
//! engine can fan them across cores; analytic or cheap studies run as a
//! single cell. Figures 7–11, the headline claims and the CSV sweep are
//! views of the §6.2 design space: their cells are shared (kernel,
//! stride, alignment, system) points, each simulated once per batch.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use cache::{run_reference_stream, CacheConfig, CacheSim, Reference};
use kernels::{
    run_point, run_point_outcome, Alignment, Kernel, StreamKernel, SystemKind, ARRAY_REGION,
    ELEMENTS, LINE_WORDS, STRIDES,
};
use memsys::{
    CachelineConfig, CachelineSerial, MemorySystem, PvaSystem, SerialGather, SerialGatherConfig,
    SmcLike, TraceOp, WORD_BYTES,
};
use pva_core::{scaling_sweep, BankId, BitReversedVector, Geometry, IndirectVector, K1Pla, Vector};
use pva_sim::{
    mixed_workload, run_indirect_gather, unit_complexity, CpuConfig, CpuModel, EventStats,
    HostRequest, OpKind, PvaConfig, JUMP_BUCKETS,
};
use sdram::{DevicePreset, SdramConfig};

use crate::engine::{CellData, CellSpec, Scenario};
use crate::faults::faults;
use crate::report::Table;
use crate::{ablation_configs, ablation_latency_s5, ablation_rw_mix_s16, ablation_vaxpy_s16};

/// All registered scenarios, in the presentation order of
/// `scripts/reproduce.sh`. `device` narrows the device-parameterized
/// `techsweep` scenario to one preset (`pva-bench --device`); `None`
/// runs its default generations.
pub fn scenarios(device: Option<DevicePreset>) -> Vec<Scenario> {
    vec![
        table1(),
        table2(),
        fig7(),
        fig8(),
        fig9(),
        fig10(),
        fig11(),
        full_sweep(),
        headline(),
        ablation(),
        ext_indirect(),
        ext_bitrev(),
        ext_cache_pollution(),
        related_cvms(),
        related_smc(),
        stream(),
        techsweep(device),
        faults(),
        scaling_banks(),
        design_space(),
        cpu_sensitivity(),
        throughput(),
    ]
}

/// Development-only scenarios: resolvable by name through [`find`] but
/// excluded from `pva-bench all`. Currently just `chaos`, the
/// fault-injection grid the resilience harness and the CI kill/resume
/// smoke drive, here with its default spec.
pub fn dev_scenarios() -> Vec<Scenario> {
    vec![chaos(ChaosSpec::default())]
}

/// Looks a scenario up by name or alias (registry first, then the dev
/// scenarios); `device` is passed on to [`scenarios`]. `chaos` also
/// resolves with its injection spec as a value, `chaos:<spec>` (see
/// [`ChaosSpec::parse`]); a malformed spec resolves to nothing.
pub fn find(name: &str, device: Option<DevicePreset>) -> Option<Scenario> {
    if let Some(spec) = name.strip_prefix("chaos:") {
        return ChaosSpec::parse(spec).map(chaos);
    }
    scenarios(device)
        .into_iter()
        .chain(dev_scenarios())
        .find(|s| s.name == name || (!s.alias.is_empty() && s.alias == name))
}

// ---------------------------------------------------------------------
// Dev scenario: chaos — deterministic cells with injectable faults.

/// The chaos grid's shape and the faults injected into its cells.
struct ChaosSpec {
    cells: usize,
    sleep_ms: u64,
    panic: Vec<usize>,
    hang: Vec<usize>,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            cells: 8,
            sleep_ms: 50,
            panic: Vec::new(),
            hang: Vec::new(),
        }
    }
}

impl ChaosSpec {
    /// Parses a comma-separated list: `cells=N` (grid size, default 8),
    /// `sleep_ms=M` (per-cell work, default 50), and any number of
    /// `panic=I` / `hang=I` entries marking cell `I` as always-panicking
    /// or hanging (sleeps for an hour, so a `--cell-timeout` classifies
    /// it as a timeout). `None` on an unknown key or a value that is not
    /// a number.
    fn parse(spec: &str) -> Option<Self> {
        let mut out = ChaosSpec::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (k, v) = part.split_once('=')?;
            let n: u64 = v.trim().parse().ok()?;
            match k.trim() {
                "cells" => out.cells = n as usize,
                "sleep_ms" => out.sleep_ms = n,
                "panic" => out.panic.push(n as usize),
                "hang" => out.hang.push(n as usize),
                _ => return None,
            }
        }
        Some(out)
    }
}

fn chaos_cells(spec: &ChaosSpec) -> Vec<CellSpec> {
    let sleep_ms = spec.sleep_ms;
    (0..spec.cells)
        .map(|i| {
            let (panic_me, hang_me) = (spec.panic.contains(&i), spec.hang.contains(&i));
            CellSpec::new("chaos", format!("cell{i:02}"), move || {
                if panic_me {
                    panic!("chaos: injected panic in cell {i}");
                }
                if hang_me {
                    // Only the --cell-timeout watchdog can reclaim it.
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
                std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
                CellData::cycles((i as u64 + 1) * 1000, i as u64)
            })
        })
        .collect()
}

fn chaos(spec: ChaosSpec) -> Scenario {
    Scenario {
        name: "chaos",
        alias: "",
        title: "dev: fault-injection cells for the resilience harness",
        smoke: false,
        golden: false,
        build: Box::new(move || chaos_cells(&spec)),
        render: Box::new(|cells: &[CellData]| {
            let mut out = String::from("chaos cells\n");
            for (i, c) in cells.iter().enumerate() {
                let _ = writeln!(out, "  cell{i:02} cycles={} bytes={}", c.cycles, c.bytes);
            }
            out
        }),
    }
}

// ---------------------------------------------------------------------
// The §6.2 grid: figures 7–11, the headline claims and the CSV sweep
// are views of one design space of (kernel, stride, alignment, system)
// points.

/// One point of the §6.2 design space.
type Point = (Kernel, u64, Alignment, SystemKind);

/// The points of every (kernel, stride, system) combination, each over
/// the five alignments.
fn grid_points(kernels: &[Kernel], strides: &[u64], systems: &[SystemKind]) -> Vec<Point> {
    let mut out = Vec::new();
    for &k in kernels {
        for &s in strides {
            for &sys in systems {
                out.extend(Alignment::ALL.map(|a| (k, s, a, sys)));
            }
        }
    }
    out
}

/// A point as a shared cell: cycles and bytes of the whole kernel. Its
/// system and label identify it, so a batch simulates each point once
/// however many views list it.
fn point_cell((k, s, a, sys): Point) -> CellSpec {
    let label = format!("{k}/s{s}/{a}");
    let work = move || {
        let o = run_point_outcome(k, s, a, sys);
        CellData::cycles(o.cycles, o.bytes_transferred)
    };
    CellSpec {
        shared: true,
        ..CellSpec::new(sys.name(), label, work)
    }
}

/// A view's cycles, looked up by point.
struct Grid(HashMap<Point, u64>);

impl Grid {
    fn cycles(&self, k: Kernel, s: u64, a: Alignment, sys: SystemKind) -> u64 {
        self.0[&(k, s, a, sys)]
    }

    /// Min and max cycles over the five alignments: the paired bars of
    /// figures 7–10.
    fn min_max(&self, k: Kernel, s: u64, sys: SystemKind) -> (u64, u64) {
        let all = Alignment::ALL.map(|a| self.cycles(k, s, a, sys));
        all.iter()
            .fold((u64::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)))
    }

    fn min(&self, k: Kernel, s: u64, sys: SystemKind) -> u64 {
        self.min_max(k, s, sys).0
    }
}

/// A golden view of the grid: `points` lists the cells it reads,
/// `render` prints them.
fn grid_view(
    name: &'static str,
    alias: &'static str,
    title: &'static str,
    points: impl Fn() -> Vec<Point> + Copy + Send + Sync + 'static,
    render: impl Fn(&Grid) -> String + Send + Sync + 'static,
) -> Scenario {
    Scenario {
        name,
        alias,
        title,
        smoke: false,
        golden: true,
        build: Box::new(move || points().into_iter().map(point_cell).collect()),
        render: Box::new(move |cells: &[CellData]| {
            let cycles = cells.iter().map(|c| c.cycles);
            render(&Grid(points().into_iter().zip(cycles).collect()))
        }),
    }
}

// Figures 7/8: stride sweeps.

const FIG7_KERNELS: [Kernel; 3] = [Kernel::Copy, Kernel::Saxpy, Kernel::Scale];
const FIG8_KERNELS: [Kernel; 3] = [Kernel::Swap, Kernel::Tridiag, Kernel::Vaxpy];

fn render_stride_sweep(title: &str, kernels: &[Kernel], grid: &Grid) -> String {
    let mut t = Table::new(vec![
        "kernel",
        "stride",
        "pva-sdram min",
        "pva-sdram max",
        "pva-sram min",
        "pva-sram max",
        "cacheline",
        "serial-gather",
    ]);
    for &k in kernels {
        for &s in &STRIDES {
            let [(sdram_min, sdram_max), (sram_min, sram_max), (cl, _), (sg, _)] =
                SystemKind::ALL.map(|sys| grid.min_max(k, s, sys));
            let mut row = vec![k.to_string(), s.to_string()];
            row.extend([sdram_min, sdram_max, sram_min, sram_max, cl, sg].map(|c| c.to_string()));
            t.row(row);
        }
    }
    format!("{title}\n\n{t}\n")
}

fn stride_sweep(
    (name, alias): (&'static str, &'static str),
    title: &'static str,
    heading: &'static str,
    kernels: &'static [Kernel],
) -> Scenario {
    grid_view(
        name,
        alias,
        title,
        move || grid_points(kernels, &STRIDES, &SystemKind::ALL),
        move |grid| render_stride_sweep(heading, kernels, grid),
    )
}

fn fig7() -> Scenario {
    stride_sweep(
        ("fig7_stride_sweep", "fig7"),
        "Figure 7: copy/saxpy/scale vs stride on the four systems",
        "Figure 7 — cycles per 1024-element kernel, varying stride",
        &FIG7_KERNELS,
    )
}

fn fig8() -> Scenario {
    stride_sweep(
        ("fig8_stride_sweep", "fig8"),
        "Figure 8: swap/tridiag/vaxpy vs stride on the four systems",
        "Figure 8 — cycles per 1024-element kernel, varying stride (continued)",
        &FIG8_KERNELS,
    )
}

// The full §6.2 sweep as CSV.

fn full_sweep() -> Scenario {
    grid_view(
        "full_sweep",
        "",
        "Full sweep: 8 patterns x 6 strides x 5 alignments x 4 systems, as CSV",
        || grid_points(&Kernel::ALL, &STRIDES, &SystemKind::ALL),
        |grid| {
            let mut csv = String::from("kernel,stride,alignment,system,cycles\n");
            for k in Kernel::ALL {
                for s in STRIDES {
                    for a in Alignment::ALL {
                        for sys in SystemKind::ALL {
                            let cycles = grid.cycles(k, s, a, sys);
                            let _ = writeln!(csv, "{k},{s},{a},{},{cycles}", sys.name());
                        }
                    }
                }
            }
            csv
        },
    )
}

// Figures 9/10: fixed-stride comparisons.

const FIG9_STRIDES: [u64; 2] = [1, 4];
const FIG10_STRIDES: [u64; 3] = [8, 16, 19];

fn render_fixed_stride(figure: u64, strides: &[u64], grid: &Grid) -> String {
    let mut out = String::new();
    for &s in strides {
        let mut t = Table::new(vec![
            "kernel",
            "pva-sdram",
            "pva-sram",
            "cacheline",
            "cl % of pva",
            "serial-gather",
            "sg % of pva",
        ]);
        for k in Kernel::ALL {
            let [pva, sram, cl, sg] = SystemKind::ALL.map(|sys| grid.min(k, s, sys));
            let pct = |c: u64| format!("{:.0}%", 100.0 * c as f64 / pva as f64);
            t.row(vec![
                k.to_string(),
                pva.to_string(),
                sram.to_string(),
                cl.to_string(),
                pct(cl),
                sg.to_string(),
                pct(sg),
            ]);
        }
        let heading = format!("Figure {figure} — all kernels at stride {s}");
        let _ = writeln!(out, "{heading} (cycles, min over alignments)\n\n{t}");
    }
    out
}

fn fig9() -> Scenario {
    grid_view(
        "fig9_fixed_stride",
        "fig9",
        "Figure 9: all kernels at strides 1 and 4",
        || grid_points(&Kernel::ALL, &FIG9_STRIDES, &SystemKind::ALL),
        |grid| render_fixed_stride(9, &FIG9_STRIDES, grid),
    )
}

fn fig10() -> Scenario {
    grid_view(
        "fig10_fixed_stride",
        "fig10",
        "Figure 10: all kernels at strides 8, 16 and 19",
        || grid_points(&Kernel::ALL, &FIG10_STRIDES, &SystemKind::ALL),
        |grid| render_fixed_stride(10, &FIG10_STRIDES, grid),
    )
}

// Figure 11: vaxpy alignment detail, SDRAM vs SRAM.

const FIG11_SYSTEMS: [SystemKind; 2] = [SystemKind::PvaSdram, SystemKind::PvaSram];

/// Figure 11's rows: SDRAM/SRAM cycle pairs in (stride, alignment)
/// order, and the largest SDRAM/SRAM ratio (at least 1).
fn vaxpy_detail(grid: &Grid) -> (Vec<(u64, Alignment, u64, u64)>, f64) {
    let mut rows = Vec::new();
    let mut worst = 1.0f64;
    for s in STRIDES {
        for a in Alignment::ALL {
            let [sdram, sram] = FIG11_SYSTEMS.map(|sys| grid.cycles(Kernel::Vaxpy, s, a, sys));
            worst = worst.max(sdram as f64 / sram as f64);
            rows.push((s, a, sdram, sram));
        }
    }
    (rows, worst)
}

fn fig11() -> Scenario {
    grid_view(
        "fig11_vaxpy_detail",
        "fig11",
        "Figure 11: vaxpy alignment sensitivity, PVA-SDRAM vs PVA-SRAM",
        || grid_points(&[Kernel::Vaxpy], &STRIDES, &FIG11_SYSTEMS),
        |grid| {
            let (rows, worst) = vaxpy_detail(grid);
            let base = rows[0].2; // stride 1, first alignment, SDRAM
            let mut t = Table::new(vec![
                "stride",
                "alignment",
                "pva-sdram",
                "norm to leftmost",
                "pva-sram",
                "sdram/sram",
            ]);
            for (stride, a, sdram, sram) in rows {
                t.row(vec![
                    stride.to_string(),
                    a.to_string(),
                    sdram.to_string(),
                    format!("{:.0}%", 100.0 * sdram as f64 / base as f64),
                    sram.to_string(),
                    format!("{:.3}", sdram as f64 / sram as f64),
                ]);
            }
            format!(
                "Figure 11 — vaxpy on PVA-SDRAM vs PVA-SRAM across alignments\n\n{t}\n\
                 worst-case SDRAM/SRAM ratio: {worst:.3}  (paper: at most ~1.15, \
                 with two cases below 1.0 from an implementation artifact)\n"
            )
        },
    )
}

// Headline claims.

const HEADLINE_SYSTEMS: [SystemKind; 3] = [
    SystemKind::PvaSdram,
    SystemKind::CachelineSerial,
    SystemKind::SerialGather,
];

fn headline() -> Scenario {
    grid_view(
        "headline_speedups",
        "headline",
        "The abstract's headline claims, recomputed on the full design space",
        || {
            // Figure 11's gap also needs vaxpy on PVA-SRAM.
            let mut points = grid_points(&Kernel::ALL, &STRIDES, &HEADLINE_SYSTEMS);
            points.extend(grid_points(
                &[Kernel::Vaxpy],
                &STRIDES,
                &[SystemKind::PvaSram],
            ));
            points
        },
        |grid| {
            let mut vs_cl: (f64, &'static str, u64) = (0.0, "", 0);
            let mut vs_sg: (f64, &'static str, u64) = (0.0, "", 0);
            let mut parity = f64::MAX;
            for k in Kernel::ALL {
                for s in STRIDES {
                    let [pva, cl, sg] = HEADLINE_SYSTEMS.map(|sys| grid.min(k, s, sys) as f64);
                    if cl / pva > vs_cl.0 {
                        vs_cl = (cl / pva, k.name(), s);
                    }
                    if sg / pva > vs_sg.0 {
                        vs_sg = (sg / pva, k.name(), s);
                    }
                    if s == 1 {
                        parity = parity.min(cl / pva);
                    }
                }
            }
            let (_, gap) = vaxpy_detail(grid);
            let mut out = String::from("Headline claims, recomputed on this reproduction\n\n");
            let speedup = |(x, k, s): (f64, &str, u64)| format!("{x:.1}x  (at {k} stride {s})");
            for (claim, value, paper) in [
                (
                    "max speedup vs cache-line serial system",
                    speedup(vs_cl),
                    "32.8x",
                ),
                (
                    "max speedup vs gathering serial system",
                    speedup(vs_sg),
                    "3.3x",
                ),
                (
                    "worst unit-stride cacheline/pva ratio",
                    format!("{parity:.2}  (>= ~0.9 means line fills unhurt)"),
                    "1.00-1.09 (100%-109%)",
                ),
                (
                    "worst-case SDRAM/SRAM gap (fig. 11)",
                    format!("{gap:.3}"),
                    "<= ~1.15",
                ),
            ] {
                let _ = writeln!(
                    out,
                    "{claim:<40}: {value}\n{:<41}: {paper}",
                    "  paper claim"
                );
            }
            out
        },
    )
}

// ---------------------------------------------------------------------
// Scheduler ablations.

fn ablation() -> Scenario {
    Scenario {
        name: "ablation_scheduler",
        alias: "ablation",
        title: "Ablations of the §5.2 scheduler design choices",
        smoke: false,
        golden: true,
        build: Box::new(|| {
            let mut cells = Vec::new();
            for (label, cfg) in ablation_configs() {
                cells.push(CellSpec::new(label, "latency_s5", move || {
                    CellData::cycles(ablation_latency_s5(cfg), 0)
                }));
                cells.push(CellSpec::new(label, "vaxpy_s16", move || {
                    CellData::cycles(ablation_vaxpy_s16(label, cfg), 0)
                }));
                cells.push(CellSpec::new(label, "rw_mix_s16", move || {
                    CellData::cycles(ablation_rw_mix_s16(cfg), 0)
                }));
            }
            cells
        }),
        render: Box::new(|cells: &[CellData]| {
            let labels: Vec<&'static str> =
                ablation_configs().into_iter().map(|(l, _)| l).collect();
            let mut t = Table::new(vec![
                "configuration",
                "latency s5",
                "vs base",
                "vaxpy s16",
                "vs base",
                "rw-mix s16",
                "vs base",
            ]);
            let base = &cells[0..3];
            let pct = |x: u64, b: u64| format!("{:+.1}%", 100.0 * (x as f64 - b as f64) / b as f64);
            for (i, label) in labels.iter().enumerate() {
                let g = &cells[i * 3..i * 3 + 3];
                t.row(vec![
                    label.to_string(),
                    g[0].cycles.to_string(),
                    pct(g[0].cycles, base[0].cycles),
                    g[1].cycles.to_string(),
                    pct(g[1].cycles, base[1].cycles),
                    g[2].cycles.to_string(),
                    pct(g[2].cycles, base[2].cycles),
                ]);
            }
            let mut out = String::new();
            let _ = writeln!(
                out,
                "Scheduler ablations — scheduler-bound probes (cycles)\n"
            );
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "probes are scheduler-bound (single-command latency / single-bank stride 16);"
            );
            let _ = writeln!(
                out,
                "fully-pipelined multi-bank workloads are BC-bus-bound and insensitive to these switches"
            );
            out
        }),
    }
}

// ---------------------------------------------------------------------
// Tables 1 and 2 (analytic, monolithic cells).

fn table1() -> Scenario {
    Scenario {
        name: "table1_complexity",
        alias: "table1",
        title: "Table 1: hardware complexity proxy and PLA scaling",
        smoke: true,
        golden: true,
        build: Box::new(|| {
            vec![CellSpec::new("analysis", "complexity", || {
                let r = unit_complexity(&PvaConfig::default());
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "Table 1 proxy — per-bank-controller storage (prototype, 16 banks)\n"
                );
                let mut t = Table::new(vec!["module", "state bits", "table bits", "RAM bytes"]);
                for m in &r.per_bc {
                    t.row(vec![
                        m.module.to_string(),
                        m.state_bits.to_string(),
                        m.table_bits.to_string(),
                        m.ram_bytes.to_string(),
                    ]);
                }
                let _ = writeln!(out, "{t}");
                let _ = writeln!(
                    out,
                    "unit totals: {} state bits, {} table bits, {} RAM bytes",
                    r.total_state_bits, r.total_table_bits, r.total_ram_bytes
                );
                let _ = writeln!(
                    out,
                    "paper's Table 1: 1039 D flip-flops + 32 latches, 5488 NAND2 (logic), 2K bytes on-chip RAM"
                );
                let _ = writeln!(
                    out,
                    "  -> the staging RAM (2048 bytes) is reproduced exactly;"
                );
                let _ = writeln!(
                    out,
                    "     state bits land in the same order of magnitude as the paper's flip-flop count\n"
                );
                let _ = writeln!(
                    out,
                    "PLA scaling (section 4.3.1): K1 PLA vs full-Ki PLA, total bits\n"
                );
                let mut t = Table::new(vec!["banks", "K1 PLA bits", "full-Ki PLA bits", "ratio"]);
                for (banks, k1, full) in scaling_sweep(8) {
                    t.row(vec![
                        banks.to_string(),
                        k1.to_string(),
                        full.to_string(),
                        format!("{:.1}", full as f64 / k1 as f64),
                    ]);
                }
                let _ = writeln!(out, "{t}");
                let _ = writeln!(
                    out,
                    "full-Ki grows ~quadratically (ratio doubles per bank doubling): PLA-only designs cap near 16 banks."
                );
                CellData::text(0, 0, out)
            })]
        }),
        render: Box::new(|cells: &[CellData]| cells[0].text.clone()),
    }
}

fn table2() -> Scenario {
    Scenario {
        name: "table2_kernels",
        alias: "table2",
        title: "Table 2: evaluation kernels with trace self-checks",
        smoke: true,
        golden: true,
        build: Box::new(|| {
            vec![CellSpec::new("analysis", "kernels", || {
                let mut out = String::new();
                let _ = writeln!(out, "Table 2 — kernels used to evaluate the design\n");
                let mut t = Table::new(vec![
                    "kernel",
                    "arrays",
                    "cmds/chunk",
                    "unroll",
                    "access pattern",
                ]);
                for k in Kernel::ALL {
                    t.row(vec![
                        k.name().to_string(),
                        k.array_count().to_string(),
                        k.accesses().len().to_string(),
                        k.unroll().to_string(),
                        k.source().to_string(),
                    ]);
                }
                let _ = writeln!(out, "{t}");
                let _ = writeln!(
                    out,
                    "trace self-check (stride 4, {ELEMENTS} elements, {LINE_WORDS}-word commands):"
                );
                let mut elements = 0u64;
                for k in Kernel::ALL {
                    let bases: Vec<u64> = (0..k.array_count() as u64).map(|i| i << 22).collect();
                    let trace = k.trace(&bases, 4, ELEMENTS, LINE_WORDS);
                    let reads = trace.iter().filter(|op| op.kind == OpKind::Read).count();
                    let writes = trace.len() - reads;
                    let _ = writeln!(
                        out,
                        "  {:8} {} commands ({} reads, {} writes)",
                        k.name(),
                        trace.len(),
                        reads,
                        writes
                    );
                    assert_eq!(
                        trace.len() as u64,
                        (ELEMENTS / LINE_WORDS) * k.accesses().len() as u64
                    );
                    elements += trace.len() as u64 * LINE_WORDS;
                }
                let _ = writeln!(out, "all traces consistent with Table 2 access patterns");
                CellData::text(0, elements * WORD_BYTES, out)
            })]
        }),
        render: Box::new(|cells: &[CellData]| cells[0].text.clone()),
    }
}

// ---------------------------------------------------------------------
// §7 extensions.

fn indirect_patterns() -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("dense-run", (0..64).collect()),
        ("every-16th (one bank)", (0..64).map(|i| i * 16).collect()),
        (
            "random-ish spread",
            (0..64).map(|i| (i * 2654435761u64) % 65536).collect(),
        ),
        (
            "csr row walk",
            (0..64).map(|i| i * 7 + (i % 5) * 1000).collect(),
        ),
    ]
}

/// Serial comparator for the indirect study: one element per cycle plus
/// per-element row management on a single device.
fn indirect_serial_cycles(iv: &IndirectVector) -> u64 {
    6 * iv.length() / 4 + iv.length()
}

fn ext_indirect() -> Scenario {
    Scenario {
        name: "ext_indirect",
        alias: "indirect",
        title: "Extension: two-phase vector-indirect gather vs element-serial",
        smoke: true,
        golden: true,
        build: Box::new(|| {
            indirect_patterns()
                .into_iter()
                .map(|(name, offsets)| {
                    CellSpec::new("pva-indirect", name, move || {
                        let cfg = PvaConfig::default();
                        let iv = IndirectVector::new(0x10000, offsets).unwrap();
                        let timing = run_indirect_gather(cfg, &iv, 0).unwrap();
                        let serial = indirect_serial_cycles(&iv);
                        CellData::with_aux(
                            timing.total_cycles,
                            iv.length() * WORD_BYTES,
                            vec![
                                timing.phase1_cycles,
                                timing.broadcast_cycles,
                                timing.phase2_cycles,
                                timing.stage_cycles,
                                timing.total_cycles,
                                serial,
                            ],
                        )
                    })
                })
                .collect()
        }),
        render: Box::new(|cells: &[CellData]| {
            let mut t = Table::new(vec![
                "pattern",
                "phase1",
                "broadcast",
                "phase2",
                "stage",
                "pva total",
                "serial",
                "speedup",
            ]);
            for ((name, _), c) in indirect_patterns().iter().zip(cells) {
                t.row(vec![
                    name.to_string(),
                    c.aux[0].to_string(),
                    c.aux[1].to_string(),
                    c.aux[2].to_string(),
                    c.aux[3].to_string(),
                    c.aux[4].to_string(),
                    c.aux[5].to_string(),
                    format!("{:.2}x", c.aux[5] as f64 / c.aux[4] as f64),
                ]);
            }
            let mut out = String::new();
            let _ = writeln!(
                out,
                "Vector-indirect gather: two-phase PVA vs element-serial (64 elements)\n"
            );
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "spread claims parallelize across banks; single-bank claims serialize (as §7 predicts)"
            );
            out
        }),
    }
}

const BITREV_SIZES: [u32; 3] = [6, 8, 10];

fn ext_bitrev() -> Scenario {
    Scenario {
        name: "ext_bitrev",
        alias: "bitrev",
        title: "Extension: bit-reversed (FFT reorder) gather",
        smoke: false,
        golden: true,
        build: Box::new(|| {
            BITREV_SIZES
                .iter()
                .map(|&k| {
                    CellSpec::new("pva-indirect", format!("log2n={k}"), move || {
                        let cfg = PvaConfig::default();
                        let g = Geometry::word_interleaved(16).unwrap();
                        let v = BitReversedVector::new(0, k).unwrap();
                        let claims: Vec<usize> = (0..16)
                            .map(|b| v.subvector_indices(BankId::new(b), &g).count())
                            .collect();
                        let mut pva_total = 0u64;
                        for line_start in (0..v.length()).step_by(32) {
                            let offsets: Vec<u64> = (line_start..line_start + 32)
                                .map(|i| v.element(i))
                                .collect();
                            let iv = IndirectVector::new(0, offsets).unwrap();
                            let timing = run_indirect_gather(cfg, &iv, 1 << 20).unwrap();
                            pva_total += timing.broadcast_cycles
                                + timing.phase2_cycles
                                + timing.stage_cycles;
                        }
                        let lines_per_gather = 32.min(v.length());
                        let cacheline = (v.length() / 32) * lines_per_gather * 20;
                        CellData::with_aux(
                            pva_total,
                            v.length() * WORD_BYTES,
                            vec![
                                v.length(),
                                *claims.iter().max().unwrap() as u64,
                                *claims.iter().min().unwrap() as u64,
                                pva_total,
                                cacheline,
                            ],
                        )
                    })
                })
                .collect()
        }),
        render: Box::new(|cells: &[CellData]| {
            let mut t = Table::new(vec![
                "log2 n",
                "elements",
                "max claim/bank",
                "min claim/bank",
                "pva cycles",
                "cacheline cycles",
                "speedup",
            ]);
            for (&k, c) in BITREV_SIZES.iter().zip(cells) {
                t.row(vec![
                    k.to_string(),
                    c.aux[0].to_string(),
                    c.aux[1].to_string(),
                    c.aux[2].to_string(),
                    c.aux[3].to_string(),
                    c.aux[4].to_string(),
                    format!("{:.2}x", c.aux[4] as f64 / c.aux[3] as f64),
                ]);
            }
            let mut out = String::new();
            let _ = writeln!(out, "Bit-reversal gather (FFT reorder) through the PVA\n");
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "claims are balanced across banks, so the reorder parallelizes despite its poor cache locality"
            );
            out
        }),
    }
}

// Cache-pollution study (monolithic helpers shared by both paths).

const POLLUTION_ITERS: u64 = 1024;
const POLLUTION_X_BASE: u64 = 1 << 22;
const POLLUTION_Y_BASE: u64 = 0;
const POLLUTION_Y_WORDS: u64 = 4096; // half the 8192-word L2

fn pollution_mixed_refs(stride: u64) -> Vec<Reference> {
    let mut refs = Vec::new();
    for i in 0..POLLUTION_ITERS {
        refs.push(Reference::Load(POLLUTION_X_BASE + i * stride));
        refs.push(Reference::Load(POLLUTION_Y_BASE + (i % POLLUTION_Y_WORDS)));
    }
    refs
}

fn pollution_y_hit_rate(l2: &mut CacheSim) -> f64 {
    let before = *l2.stats();
    for w in 0..POLLUTION_Y_WORDS {
        l2.access(Reference::Load(POLLUTION_Y_BASE + w));
    }
    let after = *l2.stats();
    (after.hits - before.hits) as f64 / POLLUTION_Y_WORDS as f64
}

fn pollution_cached_path(stride: u64) -> (f64, u64, u64) {
    let mut l2 = CacheSim::new(CacheConfig::default());
    for w in 0..POLLUTION_Y_WORDS {
        l2.access(Reference::Load(POLLUTION_Y_BASE + w));
    }
    let mut mem = PvaSystem::sdram();
    let r = run_reference_stream(&mut l2, &mut mem, &pollution_mixed_refs(stride), false);
    let y_hits = pollution_y_hit_rate(&mut l2);
    let words_moved = (r.fills + r.writebacks) * 32;
    (y_hits, words_moved, r.memory_cycles)
}

fn pollution_pva_path(stride: u64) -> (f64, u64, u64) {
    let mut l2 = CacheSim::new(CacheConfig::default());
    for w in 0..POLLUTION_Y_WORDS {
        l2.access(Reference::Load(POLLUTION_Y_BASE + w));
    }
    let mut mem = PvaSystem::sdram();
    let mut trace: Vec<TraceOp> = Vec::new();
    let x = Vector::new(POLLUTION_X_BASE, stride, POLLUTION_ITERS).expect("valid vector");
    for chunk in x.chunks(32) {
        trace.push(TraceOp::read(chunk));
    }
    let r = run_reference_stream(
        &mut l2,
        &mut mem,
        &(0..POLLUTION_ITERS)
            .map(|i| Reference::Load(POLLUTION_Y_BASE + (i % POLLUTION_Y_WORDS)))
            .collect::<Vec<_>>(),
        false,
    );
    let gather_cycles = mem.run_trace(&trace).cycles;
    let y_hits = pollution_y_hit_rate(&mut l2);
    let words_moved = (r.fills + r.writebacks) * 32 + POLLUTION_ITERS;
    (y_hits, words_moved, r.memory_cycles + gather_cycles)
}

const POLLUTION_STRIDES: [u64; 6] = [2, 4, 8, 16, 32, 64];

fn ext_cache_pollution() -> Scenario {
    Scenario {
        name: "ext_cache_pollution",
        alias: "pollution",
        title: "Extension: cache pollution by strided access, cached vs PVA path",
        smoke: false,
        golden: true,
        build: Box::new(|| {
            POLLUTION_STRIDES
                .iter()
                .map(|&stride| {
                    CellSpec::new("cached-vs-pva", format!("s{stride}"), move || {
                        let (ch, cw, cc) = pollution_cached_path(stride);
                        let (ph, pw, pc) = pollution_pva_path(stride);
                        CellData::with_aux(
                            cc + pc,
                            (cw + pw) * WORD_BYTES,
                            vec![ch.to_bits(), cw, cc, ph.to_bits(), pw, pc],
                        )
                    })
                })
                .collect()
        }),
        render: Box::new(|cells: &[CellData]| {
            let mut t = Table::new(vec![
                "stride",
                "cached: y hits",
                "cached: bus words",
                "cached: cycles",
                "pva: y hits",
                "pva: bus words",
                "pva: cycles",
            ]);
            for (&stride, c) in POLLUTION_STRIDES.iter().zip(cells) {
                t.row(vec![
                    stride.to_string(),
                    format!("{:.0}%", f64::from_bits(c.aux[0]) * 100.0),
                    c.aux[1].to_string(),
                    c.aux[2].to_string(),
                    format!("{:.0}%", f64::from_bits(c.aux[3]) * 100.0),
                    c.aux[4].to_string(),
                    c.aux[5].to_string(),
                ]);
            }
            let mut out = String::new();
            let _ = writeln!(
                out,
                "Cache pollution by strided access (1024 iterations; x strided, y dense/cached)\n"
            );
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "the cached path moves a whole line per strided element and evicts the dense"
            );
            let _ = writeln!(
                out,
                "working set; the PVA path moves only the used words and leaves y resident —"
            );
            let _ = writeln!(
                out,
                "the two bullet points of the paper's introduction, measured"
            );
            out
        }),
    }
}

// ---------------------------------------------------------------------
// Related-work comparisons.

fn cvms_latency(cfg: PvaConfig, stride: u64) -> u64 {
    let mut unit = pva_sim::PvaUnit::new(cfg).expect("valid config");
    let v = Vector::new(0, stride, 32).expect("valid vector");
    unit.run(vec![HostRequest::Read { vector: v }])
        .expect("runs")
        .cycles
}

fn cvms_throughput(cfg: PvaConfig, stride: u64, commands: u64) -> u64 {
    let mut unit = pva_sim::PvaUnit::new(cfg).expect("valid config");
    let reqs: Vec<HostRequest> = (0..commands)
        .map(|i| HostRequest::Read {
            vector: Vector::new(i * 32 * stride, stride, 32).expect("valid vector"),
        })
        .collect();
    unit.run(reqs).expect("runs").cycles
}

const CVMS_STRIDES: [u64; 4] = [4, 8, 5, 19];

fn related_cvms() -> Scenario {
    Scenario {
        name: "related_cvms",
        alias: "cvms",
        title: "Related work: PVA vs CVMS-like subcommand generation",
        smoke: true,
        golden: true,
        build: Box::new(|| {
            CVMS_STRIDES
                .iter()
                .map(|&stride| {
                    CellSpec::new("pva-vs-cvms", format!("s{stride}"), move || {
                        let pl = cvms_latency(PvaConfig::default(), stride);
                        let cl = cvms_latency(PvaConfig::cvms_like(), stride);
                        let pt = cvms_throughput(PvaConfig::default(), stride, 8);
                        let ct = cvms_throughput(PvaConfig::cvms_like(), stride, 8);
                        CellData::with_aux(
                            pl + cl + pt + ct,
                            (32 + 32 + 8 * 32 + 8 * 32) * WORD_BYTES,
                            vec![pl, cl, pt, ct],
                        )
                    })
                })
                .collect()
        }),
        render: Box::new(|cells: &[CellData]| {
            let mut t = Table::new(vec![
                "stride",
                "pva latency",
                "cvms latency",
                "delta",
                "pva 8-cmd",
                "cvms 8-cmd",
            ]);
            for (&stride, c) in CVMS_STRIDES.iter().zip(cells) {
                t.row(vec![
                    format!(
                        "{stride}{}",
                        if stride.is_power_of_two() {
                            " (pow2)"
                        } else {
                            ""
                        }
                    ),
                    c.aux[0].to_string(),
                    c.aux[1].to_string(),
                    format!("{:+}", c.aux[1] as i64 - c.aux[0] as i64),
                    c.aux[2].to_string(),
                    c.aux[3].to_string(),
                ]);
            }
            let mut out = String::new();
            let _ = writeln!(
                out,
                "PVA vs CVMS-like subcommand generation (section 3.1)\n"
            );
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "power-of-two strides: identical (both generate subcommands in 2 cycles);"
            );
            let _ = writeln!(
                out,
                "other strides: the CVMS pays ~12 extra cycles of latency per command,"
            );
            let _ = writeln!(
                out,
                "largely hidden once commands pipeline (the paper's latency-hiding point)"
            );
            out
        }),
    }
}

fn smc_trace(stride: u64) -> Vec<TraceOp> {
    let bases = Alignment::BankStagger.bases(Kernel::Copy.array_count(), 1 << 22);
    Kernel::Copy.trace(&bases, stride, ELEMENTS, LINE_WORDS)
}

fn related_smc() -> Scenario {
    Scenario {
        name: "related_smc",
        alias: "smc",
        title: "Related work: PVA vs SMC-like stream controller",
        smoke: false,
        golden: true,
        build: Box::new(|| {
            let mut cells: Vec<CellSpec> = STRIDES
                .iter()
                .map(|&s| {
                    CellSpec::new("pva-vs-smc", format!("s{s}"), move || {
                        let tr = smc_trace(s);
                        let pva = PvaSystem::sdram().run_trace(&tr);
                        let smc = SmcLike::default().run_trace(&tr);
                        let ser = SerialGather::default().run_trace(&tr);
                        CellData::with_aux(
                            pva.cycles + smc.cycles + ser.cycles,
                            pva.bytes_transferred + smc.bytes_transferred + ser.bytes_transferred,
                            vec![pva.cycles, smc.cycles, ser.cycles],
                        )
                    })
                })
                .collect();
            cells.push(CellSpec::new("pva-vs-smc", "single-s19", || {
                let one = [TraceOp::read(Vector::new(0, 19, 32).expect("valid"))];
                let pva = PvaSystem::sdram().run_trace(&one).cycles;
                let smc = SmcLike::default().run_trace(&one).cycles;
                CellData::with_aux(pva + smc, 2 * 32 * WORD_BYTES, vec![pva, smc])
            }));
            cells
        }),
        render: Box::new(|cells: &[CellData]| {
            let mut t = Table::new(vec![
                "stride",
                "pva-sdram",
                "smc-like",
                "smc/pva",
                "serial-gather",
            ]);
            for (&s, c) in STRIDES.iter().zip(cells) {
                t.row(vec![
                    s.to_string(),
                    c.aux[0].to_string(),
                    c.aux[1].to_string(),
                    format!("{:.2}x", c.aux[1] as f64 / c.aux[0] as f64),
                    c.aux[2].to_string(),
                ]);
            }
            let single = &cells[STRIDES.len()];
            let mut out = String::new();
            let _ = writeln!(
                out,
                "PVA vs SMC-like stream controller (copy kernel, 1024 elements)\n"
            );
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "single stride-19 gather: pva {} vs smc {} cycles",
                single.aux[0], single.aux[1]
            );
            let _ = writeln!(
                out,
                "\nthe SMC's dynamic ordering beats the naive serial gatherer, but its serial"
            );
            let _ = writeln!(
                out,
                "issue caps it near 1 element/cycle; the PVA's broadcast parallelism wins"
            );
            let _ = writeln!(out, "wherever more than one bank holds vector elements");
            out
        }),
    }
}

// ---------------------------------------------------------------------
// §2.4.1 context: McCalpin STREAM.

/// Elements per STREAM array.
const STREAM_ELEMENTS: u64 = 4096;
/// The prototype's clock, for reporting bytes per cycle as MB/s.
const STREAM_MHZ: f64 = 100.0;

fn stream() -> Scenario {
    Scenario {
        name: "stream",
        alias: "",
        title: "§2.4.1 context: McCalpin STREAM bandwidth on the four systems",
        smoke: true,
        golden: true,
        build: Box::new(|| {
            let mut cells = Vec::new();
            for k in StreamKernel::ALL {
                for sys in SystemKind::ALL {
                    cells.push(CellSpec::new(sys.name(), k.name(), move || {
                        let cycles = k.cycles(sys.build().as_mut(), STREAM_ELEMENTS);
                        CellData::cycles(cycles, k.bytes(STREAM_ELEMENTS))
                    }));
                }
            }
            cells
        }),
        render: Box::new(|cells: &[CellData]| {
            let mut out = format!(
                "STREAM sustained bandwidth (MB/s at {STREAM_MHZ:.0} MHz, {STREAM_ELEMENTS} elements)\n\n"
            );
            let _ = write!(out, "{:<10}", "kernel");
            for sys in SystemKind::ALL {
                let _ = write!(out, "{:>18}", sys.name());
            }
            out.push('\n');
            for (k, row) in StreamKernel::ALL
                .iter()
                .zip(cells.chunks(SystemKind::ALL.len()))
            {
                let _ = write!(out, "{:<10}", k.name());
                for c in row {
                    let mb_s = c.bytes as f64 / c.cycles as f64 * STREAM_MHZ;
                    let _ = write!(out, "{mb_s:>18.0}");
                }
                out.push('\n');
            }
            out.push_str(
                "\nunit-stride STREAM is the PVA's parity case: SDRAM matches SRAM, so the bus\n\
                 (800 MB/s peak at 64 bits x 100 MHz), not the banks, is its limit\n",
            );
            out
        }),
    }
}

// ---------------------------------------------------------------------
// Scaling / design-space / CPU-sensitivity sweeps.

fn gathered_reads(cfg: PvaConfig, stride: u64) -> u64 {
    let mut unit = pva_sim::PvaUnit::new(cfg).expect("valid config");
    let reqs: Vec<HostRequest> = (0..16u64)
        .map(|i| HostRequest::Read {
            vector: Vector::new(i * 32 * stride, stride, 32).expect("valid vector"),
        })
        .collect();
    unit.run(reqs).expect("runs").cycles
}

// ---------------------------------------------------------------------
// Technology-generation sweep: the fig-7 comparison per device preset,
// plus a row-conflict probe per preset (the §2.3 technology survey).

/// The generations the sweep runs by default: the paper's SDR part plus
/// the two modern profiles whose channel constraints (tCCD/tRRD/tFAW)
/// could plausibly erode the PVA's parallel-access advantage.
const TECHSWEEP_DEFAULT: [DevicePreset; 3] = [
    DevicePreset::Sdr100,
    DevicePreset::Ddr3_1600,
    DevicePreset::Hbm2Like,
];

/// Strides of the generation sweep — the fig-7 corners: dense, powers
/// of two (cache-pathological), and relatively prime.
const TECHSWEEP_STRIDES: [u64; 4] = [1, 4, 16, 19];

/// The device generations a run covers: the default trio, or the one
/// preset `pva-bench --device` selects — any shipped [`DevicePreset`],
/// which is how the CI smoke exercises every generation one at a time.
fn techsweep_devices(device: Option<DevicePreset>) -> Vec<DevicePreset> {
    device.map_or_else(|| TECHSWEEP_DEFAULT.to_vec(), |p| vec![p])
}

/// One sweep point: (pva, cacheline, serial-gather) cycles for the
/// kernel at the stride on one device generation, plus the
/// generation-aware scheduler's counters (group switches, coalesced
/// bursts, deferred activates, CAS commands) from the PVA run. The PVA
/// runs the full simulator under the preset's timing; the two serial
/// baselines are the paper's closed-form comparators re-parameterized
/// with the same generation's core timings (and the data-rate-scaled
/// burst for the line-fill system, since DDR moves two words per
/// clock).
fn techsweep_point(preset: DevicePreset, kernel: Kernel, stride: u64) -> (u64, u64, u64, [u64; 4]) {
    let sdram = SdramConfig::for_device(preset);
    let bases = Alignment::Coincident.bases(kernel.array_count(), ARRAY_REGION);
    let trace = kernel.trace(&bases, stride, ELEMENTS, LINE_WORDS);
    let mut system = PvaSystem::with_config(
        "techsweep",
        PvaConfig {
            sdram,
            ..PvaConfig::default()
        },
    );
    let pva = system.run_trace(&trace).cycles;
    let sched = system.scheduler_stats();
    let counters = [
        sched.group_switches,
        sched.coalesced_bursts,
        sched.deferred_activates,
        system.cas_commands(),
    ];
    let data_rate = u64::from(sdram.data_rate.max(1));
    let cacheline = CachelineSerial::new(CachelineConfig {
        line_words: LINE_WORDS,
        ras: u64::from(sdram.t_rcd),
        cas: u64::from(sdram.t_cas),
        // 16 bus transfers per 128-byte line, data_rate per clock.
        burst: 16u64.div_ceil(data_rate),
    })
    .run_trace(&trace)
    .cycles;
    let serial = SerialGather::new(SerialGatherConfig {
        t_rp: u64::from(sdram.t_rp),
        t_rcd: u64::from(sdram.t_rcd),
        t_cas: u64::from(sdram.t_cas),
    })
    .run_trace(&trace)
    .cycles;
    (pva, cacheline, serial, counters)
}

fn techsweep(device: Option<DevicePreset>) -> Scenario {
    Scenario {
        name: "techsweep",
        alias: "gen",
        title: "Technology-generation sweep: fig-7 kernels per device preset",
        smoke: true,
        golden: true,
        build: Box::new(move || {
            let mut cells = Vec::new();
            for preset in techsweep_devices(device) {
                for &k in &FIG7_KERNELS {
                    for &s in &TECHSWEEP_STRIDES {
                        cells.push(CellSpec::new(
                            preset.name(),
                            format!("{}/s{}", k.name(), s),
                            move || {
                                let (pva, cacheline, serial, sched) = techsweep_point(preset, k, s);
                                // aux[0..3] feed the rendered table;
                                // aux[3..7] are the scheduler counters
                                // (group switches, coalesced bursts,
                                // deferred activates, CAS commands)
                                // consumed by `techsweep_metrics`.
                                let mut aux = vec![pva, cacheline, serial];
                                aux.extend(sched);
                                CellData::with_aux(pva + cacheline + serial, 0, aux)
                            },
                        ));
                    }
                }
                cells.push(CellSpec::new(
                    preset.name(),
                    "vaxpy/s16/row-conflict",
                    move || {
                        let cfg = PvaConfig {
                            sdram: SdramConfig::for_device(preset),
                            ..PvaConfig::default()
                        };
                        CellData::cycles(ablation_vaxpy_s16("techsweep", cfg), 0)
                    },
                ));
            }
            cells
        }),
        render: Box::new(move |cells: &[CellData]| {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "Technology-generation sweep — fig-7 kernels x strides per device"
            );
            let _ = writeln!(
                out,
                "(coincident alignment; cycles per 1024-element kernel)"
            );
            let mut idx = 0;
            for preset in techsweep_devices(device) {
                let cfg = SdramConfig::for_device(preset);
                let _ = writeln!(out, "\n{} — {}", preset.name(), preset.title());
                let _ = writeln!(
                    out,
                    "channel constraints: tCCD_L/S {}/{}, tRRD {}, tFAW {}\n",
                    cfg.t_ccd_l, cfg.t_ccd_s, cfg.t_rrd, cfg.t_faw
                );
                let mut t = Table::new(vec![
                    "kernel",
                    "stride",
                    "pva",
                    "cacheline",
                    "serial-gather",
                    "cache/pva",
                    "serial/pva",
                ]);
                let (mut min_up, mut max_up) = (f64::INFINITY, 0.0f64);
                for &k in &FIG7_KERNELS {
                    for &s in &TECHSWEEP_STRIDES {
                        let c = &cells[idx];
                        idx += 1;
                        let (pva, cacheline, serial) = (c.aux[0], c.aux[1], c.aux[2]);
                        let up = cacheline as f64 / pva as f64;
                        min_up = min_up.min(up);
                        max_up = max_up.max(up);
                        t.row(vec![
                            k.name().to_string(),
                            s.to_string(),
                            pva.to_string(),
                            cacheline.to_string(),
                            serial.to_string(),
                            format!("{up:.2}x"),
                            format!("{:.2}x", serial as f64 / pva as f64),
                        ]);
                    }
                }
                let _ = writeln!(out, "{t}");
                let verdict = if min_up >= 1.0 {
                    "the PVA advantage survives this generation"
                } else {
                    "the PVA advantage does NOT survive every point of this generation"
                };
                let _ = writeln!(out, "vs cacheline: {min_up:.2}x-{max_up:.2}x — {verdict}");
                let _ = writeln!(
                    out,
                    "row-conflict probe (vaxpy s16, coincident): {} cycles",
                    cells[idx].cycles
                );
                idx += 1;
            }
            out
        }),
    }
}

const BANK_COUNTS: [u64; 6] = [2, 4, 8, 16, 32, 64];

fn scaling_banks() -> Scenario {
    Scenario {
        name: "scaling_banks",
        alias: "banks",
        title: "Bank-count scaling: throughput and K1-PLA cost vs banks",
        smoke: false,
        golden: true,
        build: Box::new(|| {
            BANK_COUNTS
                .iter()
                .map(|&m| {
                    CellSpec::new("pva-sdram", format!("banks={m}"), move || {
                        let run = |stride| {
                            gathered_reads(
                                PvaConfig {
                                    geometry: Geometry::word_interleaved(m).expect("power of two"),
                                    ..PvaConfig::default()
                                },
                                stride,
                            )
                        };
                        let (s1, s3, s8) = (run(1), run(3), run(8));
                        let g = Geometry::word_interleaved(m).expect("power of two");
                        let bits = K1Pla::new(&g).complexity().total_bits;
                        CellData::with_aux(s1 + s3 + s8, 0, vec![s1, s3, s8, bits])
                    })
                })
                .collect()
        }),
        render: Box::new(|cells: &[CellData]| {
            let mut t = Table::new(vec![
                "banks",
                "stride 1",
                "stride 3",
                "stride 8",
                "K1 PLA bits/BC",
            ]);
            for (&m, c) in BANK_COUNTS.iter().zip(cells) {
                t.row(vec![
                    m.to_string(),
                    c.aux[0].to_string(),
                    c.aux[1].to_string(),
                    c.aux[2].to_string(),
                    c.aux[3].to_string(),
                ]);
            }
            let mut out = String::new();
            let _ = writeln!(
                out,
                "Bank-count scaling — 16 gathered reads (cycles) and K1-PLA bits\n"
            );
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "small systems are bank-limited (stride 8 on 4 banks = single bank);"
            );
            let _ = writeln!(
                out,
                "beyond 16 banks the 17-cycle/command staging bus dominates, so extra banks"
            );
            let _ = writeln!(
                out,
                "buy robustness to bad strides, not raw throughput — while K1-PLA cost stays linear"
            );
            out
        }),
    }
}

const DS_VCS: [usize; 4] = [1, 2, 4, 8];
const DS_IDS: [usize; 4] = [2, 4, 8, 16];
const DS_RATES: [u64; 4] = [1, 2, 4, 8];

fn design_space() -> Scenario {
    Scenario {
        name: "design_space",
        alias: "design",
        title: "Design-space sweep: vector contexts, transaction ids, staging rate",
        smoke: true,
        golden: true,
        build: Box::new(|| {
            let mut cells = Vec::new();
            let probe = |cfg: PvaConfig| {
                let s19 = gathered_reads(cfg, 19);
                let s16 = gathered_reads(cfg, 16);
                CellData::with_aux(s19 + s16, 0, vec![s19, s16])
            };
            for vcs in DS_VCS {
                cells.push(CellSpec::new(
                    "pva-sdram",
                    format!("vcs={vcs}"),
                    move || {
                        probe(PvaConfig {
                            vector_contexts: vcs,
                            ..PvaConfig::default()
                        })
                    },
                ));
            }
            for ids in DS_IDS {
                cells.push(CellSpec::new(
                    "pva-sdram",
                    format!("ids={ids}"),
                    move || {
                        probe(PvaConfig {
                            transaction_ids: ids,
                            ..PvaConfig::default()
                        })
                    },
                ));
            }
            for rate in DS_RATES {
                cells.push(CellSpec::new(
                    "pva-sdram",
                    format!("rate={rate}"),
                    move || {
                        probe(PvaConfig {
                            stage_words_per_cycle: rate,
                            ..PvaConfig::default()
                        })
                    },
                ));
            }
            cells
        }),
        render: Box::new(|cells: &[CellData]| {
            let mut out = String::new();
            let _ = writeln!(out, "PVA design-space sweep — 16 gathered reads (cycles)\n");
            let _ = writeln!(
                out,
                "vector contexts per bank controller (txn ids = 8, stage rate = 2):"
            );
            let mut t = Table::new(vec!["VCs", "stride 19", "stride 16"]);
            for (i, vcs) in DS_VCS.iter().enumerate() {
                let c = &cells[i];
                t.row(vec![
                    vcs.to_string(),
                    c.aux[0].to_string(),
                    c.aux[1].to_string(),
                ]);
            }
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "outstanding transaction ids (VCs = 4, stage rate = 2):"
            );
            let mut t = Table::new(vec!["txn ids", "stride 19", "stride 16"]);
            for (i, ids) in DS_IDS.iter().enumerate() {
                let c = &cells[4 + i];
                t.row(vec![
                    ids.to_string(),
                    c.aux[0].to_string(),
                    c.aux[1].to_string(),
                ]);
            }
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "BC-bus staging rate in words/cycle (VCs = 4, txn ids = 8):"
            );
            let mut t = Table::new(vec!["words/cycle", "stride 19", "stride 16"]);
            for (i, rate) in DS_RATES.iter().enumerate() {
                let c = &cells[8 + i];
                t.row(vec![
                    rate.to_string(),
                    c.aux[0].to_string(),
                    c.aux[1].to_string(),
                ]);
            }
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "at parallel strides the staging rate is the binding resource (the 17-cycle"
            );
            let _ = writeln!(
                out,
                "floor halves when the bus doubles); at single-bank strides the SDRAM command"
            );
            let _ = writeln!(
                out,
                "rate binds and none of the front-end knobs help — matching the paper's choice"
            );
            let _ = writeln!(
                out,
                "to spend area on per-bank parallelism rather than deeper queues"
            );
            out
        }),
    }
}

fn cpu_reads(n: u64, stride: u64) -> Vec<HostRequest> {
    (0..n)
        .map(|i| HostRequest::Read {
            vector: Vector::new(i * 32 * stride, stride, 32).expect("valid"),
        })
        .collect()
}

const CPU_OUTSTANDING: [usize; 4] = [1, 2, 4, 8];
const CPU_GAPS: [u64; 5] = [0, 8, 17, 34, 68];
const CPU_PCTS: [u64; 5] = [0, 25, 50, 75, 100];

fn cpu_sensitivity() -> Scenario {
    Scenario {
        name: "cpu_sensitivity",
        alias: "cpu",
        title: "CPU sensitivity: outstanding misses, issue gap, vectorizable fraction",
        smoke: false,
        golden: true,
        build: Box::new(|| {
            let mut cells = vec![CellSpec::new("cacheline-serial", "baseline", || {
                let c = run_point(
                    Kernel::Scale,
                    19,
                    Alignment::BankStagger,
                    SystemKind::CachelineSerial,
                );
                CellData::cycles(c, 0)
            })];
            for k in CPU_OUTSTANDING {
                cells.push(CellSpec::new(
                    "cpu-pva",
                    format!("outstanding={k}"),
                    move || {
                        let r = CpuModel::new(CpuConfig {
                            max_outstanding: k,
                            ..CpuConfig::default()
                        })
                        .drive(PvaConfig::default(), &cpu_reads(32, 19))
                        .expect("runs");
                        CellData::with_aux(r.cycles, 0, vec![r.cycles, r.stall_cycles])
                    },
                ));
            }
            for gap in CPU_GAPS {
                cells.push(CellSpec::new("cpu-pva", format!("gap={gap}"), move || {
                    let r = CpuModel::new(CpuConfig {
                        cycles_between_requests: gap,
                        max_outstanding: 8,
                    })
                    .drive(PvaConfig::default(), &cpu_reads(32, 19))
                    .expect("runs");
                    CellData::with_aux(r.cycles, 0, vec![r.cycles])
                }));
            }
            for pct in CPU_PCTS {
                cells.push(CellSpec::new(
                    "cpu-pva",
                    format!("vector={pct}%"),
                    move || {
                        let w = mixed_workload(32, pct, 19);
                        let r = CpuModel::new(CpuConfig::default())
                            .drive(PvaConfig::default(), &w)
                            .expect("runs");
                        CellData::with_aux(r.cycles, 0, vec![r.cycles])
                    },
                ));
            }
            cells
        }),
        render: Box::new(|cells: &[CellData]| {
            let baseline_cl = cells[0].cycles / 2;
            // (scale = 64 commands; the probe is 32 reads, so halve.)
            let mut out = String::new();
            let _ = writeln!(
                out,
                "CPU sensitivity — 32 stride-19 gathers vs the cache-line baseline\n"
            );
            let _ = writeln!(
                out,
                "outstanding L2 misses permitted (infinitely fast issue):"
            );
            let mut t = Table::new(vec![
                "outstanding",
                "pva cycles",
                "stalls",
                "speedup vs cacheline",
            ]);
            for (i, k) in CPU_OUTSTANDING.iter().enumerate() {
                let c = &cells[1 + i];
                t.row(vec![
                    k.to_string(),
                    c.aux[0].to_string(),
                    c.aux[1].to_string(),
                    format!("{:.1}x", baseline_cl as f64 / c.aux[0] as f64),
                ]);
            }
            let _ = writeln!(out, "{t}");
            let _ = writeln!(out, "compute cycles between requests (8 outstanding):");
            let mut t = Table::new(vec!["gap", "pva cycles", "speedup vs cacheline"]);
            for (i, gap) in CPU_GAPS.iter().enumerate() {
                let c = &cells[5 + i];
                t.row(vec![
                    gap.to_string(),
                    c.aux[0].to_string(),
                    format!("{:.1}x", baseline_cl as f64 / c.aux[0] as f64),
                ]);
            }
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "fraction of accesses that are vectorizable (rest are unit-stride fills):"
            );
            let mut t = Table::new(vec![
                "% vector",
                "pva-path cycles",
                "all-cacheline cycles",
                "speedup",
            ]);
            for (i, pct) in CPU_PCTS.iter().enumerate() {
                let c = &cells[10 + i];
                let strided = (32 * pct / 100) as f64;
                let cl = strided * 19.0 * 20.0 + (32.0 - strided) * 20.0;
                t.row(vec![
                    format!("{pct}%"),
                    c.aux[0].to_string(),
                    format!("{cl:.0}"),
                    format!("{:.1}x", cl / c.aux[0] as f64),
                ]);
            }
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "peak speedups need many outstanding misses and dense vector traffic —"
            );
            let _ = writeln!(
                out,
                "exactly the qualification the paper attaches to its own numbers"
            );
            out
        }),
    }
}

// ---------------------------------------------------------------------
// Simulator throughput: fast-path vs reference model.

const THROUGHPUT_REPS: u64 = 15;

/// The devices the throughput scenario probes, one cell each: the
/// paper's SDR part, and a DDR3 part on which the generation-aware
/// scheduler does most of its work. The first cell's record keys carry
/// no suffix; later cells' keys end in `_<device>`.
const PROBE_DEVICES: [DevicePreset; 2] = [DevicePreset::Sdr100, DevicePreset::Ddr3_1600];

/// Measures the reference and fast-path models on `preset` *paired in
/// time*: for each (kernel, stride) point the two systems alternate rep
/// by rep, so slow drift (hypervisor steal, frequency scaling) hits
/// both sides of the ratio equally. Each side is scored by its fastest
/// rep — noise only ever adds time, so min-of-N estimates the true
/// per-run cost. The cell's `aux` carries
/// `[model_cycles, ref_wall_ns, fast_wall_ns,
///   executed_cycles, skipped_cycles, jumps, events_popped,
///   jump_hist[0..JUMP_BUCKETS], idle_ticks]`
/// where the event-loop counters are one sweep's worth from the fast
/// model (runs are deterministic, so every rep agrees);
/// `cycles`/`bytes` count both models' simulated work.
fn throughput_probe(preset: DevicePreset) -> CellData {
    let fast_cfg = PvaConfig {
        sdram: SdramConfig::for_device(preset),
        ..PvaConfig::default()
    };
    let ref_cfg = PvaConfig {
        fast_sim: false,
        ..fast_cfg
    };
    let mut cycles = 0u64;
    let mut bytes = 0u64;
    let mut ref_wall = 0u64;
    let mut fast_wall = 0u64;
    let mut events = EventStats::default();
    for &kernel in &FIG7_KERNELS {
        for &stride in &STRIDES {
            let bases = Alignment::BankStagger.bases(kernel.array_count(), ARRAY_REGION);
            let trace = kernel.trace(&bases, stride, ELEMENTS, LINE_WORDS);
            let mut ref_sys = PvaSystem::with_config("probe-ref", ref_cfg);
            let mut fast_sys = PvaSystem::with_config("probe-fast", fast_cfg);
            // One untimed warm-up per side keeps one-time allocation
            // and paging costs out of the measured window.
            ref_sys.run_trace(&trace);
            fast_sys.run_trace(&trace);
            let mut best_ref = u64::MAX;
            let mut best_fast = u64::MAX;
            for _ in 0..THROUGHPUT_REPS {
                let t0 = Instant::now();
                let r = ref_sys.run_trace(&trace);
                best_ref = best_ref.min(t0.elapsed().as_nanos() as u64);

                let t0 = Instant::now();
                let f = fast_sys.run_trace(&trace);
                best_fast = best_fast.min(t0.elapsed().as_nanos() as u64);

                debug_assert_eq!(r.cycles, f.cycles, "models must agree cycle-for-cycle");
                cycles += r.cycles + f.cycles;
                bytes += r.bytes_transferred + f.bytes_transferred;
            }
            events.absorb(fast_sys.event_stats());
            ref_wall += best_ref * THROUGHPUT_REPS;
            fast_wall += best_fast * THROUGHPUT_REPS;
        }
    }
    // Both models simulate the same cycle counts, so each side's share
    // is exactly half the combined total.
    let mut aux = vec![
        cycles / 2,
        ref_wall,
        fast_wall,
        events.executed_cycles,
        events.skipped_cycles,
        events.jumps,
        events.events_popped,
    ];
    aux.extend(events.jump_hist);
    aux.push(events.idle_ticks);
    CellData::with_aux(cycles, bytes, aux)
}

/// Simulated-cycles-per-second of one side of a paired probe cell.
fn sim_rate(c: &CellData, wall_ns: u64) -> f64 {
    c.aux[0] as f64 / (wall_ns.max(1) as f64 / 1e9)
}

/// The fast-vs-reference speedup of one probe cell.
fn cell_speedup(c: &CellData) -> f64 {
    sim_rate(c, c.aux[2]) / sim_rate(c, c.aux[1])
}

/// The fast-vs-reference speedup the `--min-speedup` gate checks: the
/// smaller of the probe cells' ratios. Returns 0.0 when a probe cell
/// was quarantined (short `aux`), so the gate fails rather than
/// panics.
pub fn throughput_speedup(cells: &[CellData]) -> f64 {
    if cells.len() != PROBE_DEVICES.len() || cells.iter().any(|c| c.aux.len() < 3) {
        return 0.0;
    }
    cells.iter().map(cell_speedup).fold(f64::INFINITY, f64::min)
}

/// Derived metrics of the `techsweep` scenario: the generation-aware
/// scheduler's counters summed over every (device, kernel, stride)
/// cell — bank-group switch rate per CAS, coalesced bursts, and
/// tFAW-deferred activates. Cells that predate the counter aux columns
/// (or were quarantined) contribute nothing.
pub fn techsweep_metrics(cells: &[CellData]) -> Vec<(String, f64)> {
    let mut switches = 0u64;
    let mut coalesced = 0u64;
    let mut deferred = 0u64;
    let mut cas = 0u64;
    for c in cells.iter().filter(|c| c.aux.len() >= 7) {
        switches += c.aux[3];
        coalesced += c.aux[4];
        deferred += c.aux[5];
        cas += c.aux[6];
    }
    if cas == 0 {
        return Vec::new();
    }
    vec![
        // pva-lint: allow(nonconst-div): metric over a checked nonzero total
        ("group_switch_rate".into(), switches as f64 / cas as f64),
        ("coalesced_bursts".into(), coalesced as f64),
        ("tfaw_deferred_activates".into(), deferred as f64),
        ("cas_commands".into(), cas as f64),
    ]
}

/// Derived figures for the throughput scenario's `BENCH_*.json` record,
/// per probe device: simulated-cycles-per-second of each model, the
/// fast-path speedup, the event-loop density (wake-ups popped per
/// thousand simulated cycles — the cost the event queue pays for the
/// cycles it skips), the jump-size histogram (bucket `i` counts
/// bulk time-advances of `2^i..2^(i+1)-1` cycles; the last bucket is
/// open-ended), and the controller ticks that did no work per thousand
/// simulated cycles. The first device's keys carry no suffix.
pub fn throughput_metrics(cells: &[CellData]) -> Vec<(String, f64)> {
    if cells.len() != PROBE_DEVICES.len() || cells.iter().any(|c| c.aux.len() < 8 + JUMP_BUCKETS) {
        return Vec::new(); // a probe cell was quarantined
    }
    let mut m = Vec::new();
    for (i, (c, device)) in cells.iter().zip(PROBE_DEVICES).enumerate() {
        let suffix = if i == 0 {
            String::new()
        } else {
            format!("_{}", device.name())
        };
        let sweep_cycles = (c.aux[0] / THROUGHPUT_REPS).max(1) as f64;
        let mut push = |key: &str, value: f64| m.push((format!("{key}{suffix}"), value));
        push("sim_cycles_per_sec_reference", sim_rate(c, c.aux[1]));
        push("sim_cycles_per_sec_event", sim_rate(c, c.aux[2]));
        push("fast_path_speedup", cell_speedup(c));
        push("executed_cycle_fraction", c.aux[3] as f64 / sweep_cycles);
        push("events_per_kcycle", c.aux[6] as f64 * 1e3 / sweep_cycles);
        for (b, &count) in c.aux[7..7 + JUMP_BUCKETS].iter().enumerate() {
            let label = if b + 1 == JUMP_BUCKETS {
                format!("jump_hist_{}_plus", 1u64 << b)
            } else {
                format!("jump_hist_{}_{}", 1u64 << b, (1u64 << (b + 1)) - 1)
            };
            push(&label, count as f64);
        }
        push(
            "idle_ticks_per_kcycle",
            c.aux[7 + JUMP_BUCKETS] as f64 * 1e3 / sweep_cycles,
        );
    }
    m
}

fn throughput() -> Scenario {
    Scenario {
        name: "throughput",
        alias: "",
        title: "Simulator throughput: idle-cycle-skipping fast path vs reference model",
        smoke: true,
        golden: false,
        build: Box::new(|| {
            PROBE_DEVICES
                .iter()
                .enumerate()
                .map(|(i, &device)| {
                    let label = if i == 0 {
                        "fig7-probe".to_string()
                    } else {
                        format!("fig7-probe-{}", device.name())
                    };
                    CellSpec::new("paired ref/fast probe", label, move || {
                        throughput_probe(device)
                    })
                })
                .collect()
        }),
        render: Box::new(|cells: &[CellData]| {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "Simulator throughput — figure-7 kernels x stride sweep, {THROUGHPUT_REPS} reps per point\n"
            );
            let mut t = Table::new(vec![
                "device",
                "configuration",
                "sim cycles",
                "wall ms",
                "Mcycles/s",
            ]);
            for (c, device) in cells.iter().zip(PROBE_DEVICES) {
                for (name, wall) in [
                    ("reference (fast_sim off)", c.aux[1]),
                    ("event-driven (default)", c.aux[2]),
                ] {
                    t.row(vec![
                        device.name().to_string(),
                        name.to_string(),
                        c.aux[0].to_string(),
                        format!("{:.1}", wall as f64 / 1e6),
                        format!("{:.2}", sim_rate(c, wall) / 1e6),
                    ]);
                }
            }
            let _ = writeln!(out, "{t}");
            for (c, device) in cells.iter().zip(PROBE_DEVICES) {
                let _ = writeln!(
                    out,
                    "{}: fast-path speedup {:.2}x (simulated cycles per second, fast vs reference)",
                    device.name(),
                    cell_speedup(c)
                );
            }
            let _ = writeln!(
                out,
                "(cycle counts are bit-identical between the two models by construction)\n"
            );
            for (c, device) in cells.iter().zip(PROBE_DEVICES) {
                let sweep = (c.aux[0] / THROUGHPUT_REPS).max(1);
                let _ = writeln!(
                    out,
                    "{} event loop: {:.1}% of cycles executed, {} wake-ups ({:.0} per kcycle, \
                     {} without work), {} jumps",
                    device.name(),
                    100.0 * c.aux[3] as f64 / sweep as f64,
                    c.aux[6],
                    c.aux[6] as f64 * 1e3 / sweep as f64,
                    c.aux[7 + JUMP_BUCKETS],
                    c.aux[5],
                );
                let hist: Vec<String> = c.aux[7..7 + JUMP_BUCKETS]
                    .iter()
                    .enumerate()
                    .map(|(i, n)| {
                        if i + 1 == JUMP_BUCKETS {
                            format!("{}+:{n}", 1u64 << i)
                        } else {
                            format!("{}-{}:{n}", 1u64 << i, (1u64 << (i + 1)) - 1)
                        }
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "{} jump sizes (cycles): {}",
                    device.name(),
                    hist.join("  ")
                );
            }
            out
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_and_aliases_are_unique() {
        let all = scenarios(None);
        let mut names: Vec<&str> = all
            .iter()
            .map(|s| s.name)
            .chain(all.iter().map(|s| s.alias).filter(|a| !a.is_empty()))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate scenario name or alias");
        assert_eq!(all.len(), 22);
    }

    #[test]
    fn techsweep_covers_the_default_generations() {
        // The default sweep must include the paper's SDR part (the
        // equivalence anchor) plus at least two later generations.
        assert!(TECHSWEEP_DEFAULT.contains(&DevicePreset::Sdr100));
        assert!(TECHSWEEP_DEFAULT.len() >= 3);
        // Per device: the kernel x stride table plus the row-conflict
        // probe.
        let cells = (find("techsweep", None).unwrap().build)();
        assert_eq!(
            cells.len(),
            TECHSWEEP_DEFAULT.len() * (FIG7_KERNELS.len() * TECHSWEEP_STRIDES.len() + 1)
        );
    }

    #[test]
    fn grid_views_list_3290_points_of_which_960_are_distinct() {
        let views = [
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "headline",
            "full_sweep",
        ];
        let cells: Vec<Vec<CellSpec>> = views.map(|v| (find(v, None).unwrap().build)()).into();
        let listed: Vec<usize> = cells.iter().map(Vec::len).collect();
        assert_eq!(listed, [360, 360, 320, 480, 60, 750, 960]);
        for (view, cells) in views.iter().zip(&cells) {
            let distinct: std::collections::HashSet<_> =
                cells.iter().map(|c| (&c.system, &c.label)).collect();
            assert_eq!(distinct.len(), cells.len(), "{view} lists a point twice");
        }
        let shared: std::collections::HashSet<_> = cells
            .iter()
            .flatten()
            .filter(|c| c.shared)
            .map(|c| (&c.system, &c.label))
            .collect();
        assert_eq!(shared.len(), 960);
    }

    #[test]
    fn find_resolves_names_and_aliases() {
        assert_eq!(find("fig7", None).unwrap().name, "fig7_stride_sweep");
        assert_eq!(
            find("fig7_stride_sweep", None).unwrap().name,
            "fig7_stride_sweep"
        );
        assert_eq!(find("throughput", None).unwrap().name, "throughput");
        assert!(find("nope", None).is_none());
    }

    #[test]
    fn chaos_is_a_dev_scenario_outside_the_registry() {
        assert!(find("chaos", None).is_some(), "resolvable by name");
        let spec = find("chaos:cells=3,panic=1", None).expect("resolvable with a spec");
        assert_eq!(spec.name, "chaos");
        assert_eq!((spec.build)().len(), 3, "the spec sizes the grid");
        for bad in [
            "chaos:cells=x",
            "chaos:panic",
            "chaos:cels=3",
            "chaos:coop=1",
        ] {
            assert!(find(bad, None).is_none(), "{bad} must not resolve");
        }
        assert!(
            scenarios(None).iter().all(|s| s.name != "chaos"),
            "but never part of `all`"
        );
        let dev = dev_scenarios();
        assert!(dev.iter().all(|s| !s.smoke && !s.golden));
    }

    #[test]
    fn smoke_subset_is_nonempty_and_contains_throughput() {
        let smoke: Vec<_> = scenarios(None).into_iter().filter(|s| s.smoke).collect();
        assert!(smoke.len() >= 3);
        assert!(smoke.iter().any(|s| s.name == "throughput"));
    }
}
