//! The data oracle: a sequential reference memory that every run's
//! output is checked against.
//!
//! In program order, a gathered word must equal the last write to its
//! address earlier in the batch, or — never written — the device's
//! background pattern of its bank-local address. After the run, every
//! written word must read back as the last write to it.

use std::collections::HashMap;

use pva_core::Geometry;
use pva_sim::{Completion, HostRequest};

/// Checks one run and returns the number of failed requests: a read
/// whose line has a wrong or missing word, a write whose data did not
/// land, or any request without exactly one clean completion.
pub fn check_run(
    geometry: &Geometry,
    requests: &[HostRequest],
    completions: &[Completion],
    peek: impl Fn(u64) -> u64,
) -> u64 {
    let mut failed = vec![false; requests.len()];
    let mut by_index: Vec<Option<&Completion>> = vec![None; requests.len()];
    for c in completions {
        match by_index.get_mut(c.request_index) {
            Some(slot @ None) => *slot = Some(c),
            Some(Some(_)) => failed[c.request_index] = true,
            None => {}
        }
    }
    // Address -> (last value written, index of the writing request).
    let mut memory: HashMap<u64, (u64, usize)> = HashMap::new();
    for (i, request) in requests.iter().enumerate() {
        let Some(completion) = by_index[i] else {
            failed[i] = true;
            continue;
        };
        if !completion.faulted.is_empty() {
            failed[i] = true;
        }
        match request {
            HostRequest::Read { vector } => {
                let line = completion.data.as_deref().unwrap_or(&[]);
                let expected = vector.addresses().map(|addr| {
                    memory.get(&addr).map_or_else(
                        || sdram::background_pattern(geometry.bank_local_addr(addr)),
                        |&(value, _)| value,
                    )
                });
                if line.len() as u64 != vector.length() || !line.iter().copied().eq(expected) {
                    failed[i] = true;
                }
            }
            HostRequest::Write { vector, data } => {
                if completion.data.is_some() {
                    failed[i] = true;
                }
                for (addr, &value) in vector.addresses().zip(data) {
                    memory.insert(addr, (value, i));
                }
            }
        }
    }
    for (&addr, &(value, writer)) in &memory {
        if peek(addr) != value {
            failed[writer] = true;
        }
    }
    failed.iter().filter(|&&f| f).count() as u64
}
