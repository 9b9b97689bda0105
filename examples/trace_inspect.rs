//! Cycle-by-cycle inspection of one gathered vector read — the software
//! analogue of watching the Verilog waveforms.
//!
//! Run with: `cargo run --example trace_inspect [-- BASE STRIDE LEN] [--vcd FILE]`
//!
//! `BASE STRIDE LEN` pick the vector (decimal or `0x` hex; default
//! `0x100 6 32`); `--vcd FILE` also writes the events as a VCD
//! waveform.

use std::io::Write as _;

use pva::core::Vector;
use pva::sim::{write_vcd, HostRequest, PvaConfig, PvaUnit};

fn parse_u64(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|_| format!("invalid number {s}"))
}

fn main() -> Result<(), String> {
    let mut numbers = Vec::new();
    let mut vcd_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--vcd" {
            vcd_path = Some(args.next().ok_or("--vcd takes a file name")?);
        } else {
            numbers.push(parse_u64(&a)?);
        }
    }
    // Stride 6 = 3 * 2^1: 8 banks hit.
    let (base, stride, len) = match numbers[..] {
        [] => (0x100, 6, 32),
        [b, s, l] => (b, s, l),
        _ => return Err("expected BASE STRIDE LEN or no numbers".into()),
    };

    let cfg = PvaConfig {
        record_trace: true,
        ..PvaConfig::default()
    };
    let mut unit = PvaUnit::new(cfg).map_err(|e| e.to_string())?;
    let v = Vector::new(base, stride, len).map_err(|e| e.to_string())?;
    let r = unit
        .run(vec![HostRequest::Read { vector: v }])
        .map_err(|e| e.to_string())?;
    println!("gather of {v} took {} cycles; full event log:\n", r.cycles);
    let events = unit.take_events();
    for e in &events {
        println!("{e}");
    }
    if let Some(path) = vcd_path {
        let mut f = std::fs::File::create(&path).map_err(|e| e.to_string())?;
        write_vcd(&events, cfg.geometry.banks() as usize, &mut f).map_err(|e| e.to_string())?;
        f.flush().map_err(|e| e.to_string())?;
        println!("\nwaveform written to {path}");
    }
    Ok(())
}
