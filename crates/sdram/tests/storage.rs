//! Paged functional storage: words at page edges, unwritten words in a
//! written page, and the per-word check bytes and decay bits a page
//! carries when ECC or the retention model is on.

use sdram::{background_pattern, DevicePreset, FaultConfig, Sdram, SdramCmd, SdramConfig};

/// Ticks until the device accepts `cmd`.
fn wait_until_legal(d: &mut Sdram, cmd: &SdramCmd) {
    for _ in 0..1_000 {
        if d.can_issue(cmd).is_ok() {
            return;
        }
        d.tick();
    }
    panic!("{cmd:?} never became legal");
}

/// Issues `cmd` at the first cycle the device accepts it.
fn issue_when_legal(d: &mut Sdram, cmd: SdramCmd) {
    wait_until_legal(d, &cmd);
    d.issue(cmd).unwrap();
}

/// Opens the row holding device-local word `local`, writes `write` to
/// the word (or reads it when `None`), then precharges. Returns the
/// data read.
fn timed_access(d: &mut Sdram, local: u64, write: Option<u64>) -> Option<u64> {
    let ia = d.config().map(local);
    let (bank, col) = (ia.bank, ia.col);
    issue_when_legal(d, SdramCmd::Activate { bank, row: ia.row });
    let mut read = None;
    match write {
        Some(data) => issue_when_legal(
            d,
            SdramCmd::Write {
                bank,
                col,
                data,
                auto_precharge: false,
            },
        ),
        None => {
            let cmd = SdramCmd::Read {
                bank,
                col,
                auto_precharge: false,
                tag: local,
            };
            wait_until_legal(d, &cmd);
            d.issue_read_burst(bank, false, &[(col, local)], |w| read = Some(w.data))
                .unwrap();
        }
    }
    issue_when_legal(d, SdramCmd::Precharge { bank });
    d.tick();
    read
}

fn timed_write(d: &mut Sdram, local: u64, data: u64) {
    timed_access(d, local, Some(data));
}

fn timed_read(d: &mut Sdram, local: u64) -> u64 {
    timed_access(d, local, None).expect("a read returns data")
}

#[test]
fn words_at_page_edges_round_trip() {
    // Pages are min(row, 512) words: one per row on hbm2 (256-word
    // rows) and sdr100 (512), many per row on the SRAM model (2^22).
    for preset in [
        DevicePreset::Hbm2Like,
        DevicePreset::Sdr100,
        DevicePreset::SramLike,
    ] {
        let name = preset.name();
        let mut d = Sdram::new(SdramConfig::for_device(preset));
        let page = (1u64 << d.config().log2_cols).min(512);
        let edges = [0, page - 1, page, 2 * page - 1, 2 * page, 3 * page - 1];
        for (i, &local) in edges.iter().enumerate() {
            timed_write(&mut d, local, 0x5EED_0000 + i as u64);
        }
        for (i, &local) in edges.iter().enumerate() {
            let want = 0x5EED_0000 + i as u64;
            assert_eq!(d.peek(local), want, "{name}: peek word {local}");
            assert_eq!(timed_read(&mut d, local), want, "{name}: read word {local}");
        }
        // The unwritten neighbours inside the same pages.
        for local in [1, page - 2, page + 1, 2 * page - 2, 2 * page + 1] {
            let want = background_pattern(local);
            assert_eq!(d.peek(local), want, "{name}: peek word {local}");
            assert_eq!(timed_read(&mut d, local), want, "{name}: read word {local}");
        }
    }
}

#[test]
fn unwritten_word_in_a_written_page_reads_the_background() {
    let mut d = Sdram::new(SdramConfig::default());
    d.poke(100, 0xAAAA);
    assert_eq!(d.peek(100), 0xAAAA);
    for local in [0, 99, 101, 511] {
        assert_eq!(d.peek(local), background_pattern(local), "word {local}");
    }
    // A word whose stored value equals 0 is still written, not
    // background.
    d.poke(101, 0);
    assert_eq!(d.peek(101), 0);
}

#[test]
fn check_bytes_survive_a_neighbouring_store_and_follow_a_rewrite() {
    // With ECC on and no faults, every read must decode clean: the
    // check byte stored with a word survives later stores into the
    // same page, and a rewrite stores the new word's check byte.
    let mut d = Sdram::new(SdramConfig {
        ecc: true,
        ..SdramConfig::default()
    });
    timed_write(&mut d, 7, 0x1111);
    for local in 0..16 {
        if local != 7 {
            timed_write(&mut d, local, 0x2000 + local);
        }
    }
    assert_eq!(timed_read(&mut d, 7), 0x1111);
    timed_write(&mut d, 7, 0x3333);
    assert_eq!(timed_read(&mut d, 7), 0x3333);
    let s = d.stats();
    assert_eq!((s.corrected, s.detected_uncorrectable, s.silent), (0, 0, 0));
}

#[test]
fn decay_bits_survive_a_neighbouring_store_and_clear_on_a_rewrite() {
    let mut d = Sdram::new(SdramConfig {
        fault: FaultConfig {
            seed: 42,
            retention_cycles: 2_000,
            ..FaultConfig::none()
        },
        ..SdramConfig::for_device(DevicePreset::SdrRefresh)
    });
    timed_write(&mut d, 0, 0xCAFE);
    for _ in 0..3_000 {
        d.tick();
    }
    // Reopening the lapsed row decays its one written word.
    let decayed = timed_read(&mut d, 0);
    assert_eq!((decayed ^ 0xCAFE).count_ones(), 1);
    assert_eq!(d.stats().decayed_words, 1);
    // A store to another word of the same page leaves the decay bit.
    timed_write(&mut d, 1, 0xBEEF);
    assert_eq!(timed_read(&mut d, 0), decayed);
    assert_eq!(timed_read(&mut d, 1), 0xBEEF);
    // Rewriting the decayed word recharges it.
    timed_write(&mut d, 0, 0xCAFE);
    assert_eq!(timed_read(&mut d, 0), 0xCAFE);
    assert_eq!(d.stats().decayed_words, 1);
}
