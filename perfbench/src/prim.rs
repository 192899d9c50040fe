//! Primitive layers timed by direct calls on seeded inputs: CRC-32 framing
//! checksums, delta encode/apply on one 22 KiB revision pair, and record
//! store put/get/overwrite at 512 B and 22 KiB.

use crate::measure::{median, Report};
use dbdedup_delta::{DbDeltaConfig, DbDeltaEncoder, Delta};
use dbdedup_storage::{RecordStore, StorageForm, StoreConfig};
use dbdedup_util::dist::SplitMix64;
use dbdedup_util::hash::crc32;
use dbdedup_util::ids::RecordId;
use dbdedup_workloads::text::TextGen;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const SMALL: usize = 512;
const LARGE: usize = 22 * 1024;
/// Repetitions per primitive; each figure is the median of this many
/// batches so one preempted batch does not move it.
const BATCHES: usize = 7;

fn text_bytes(rng: &mut SplitMix64, gen: &TextGen, len: usize) -> Vec<u8> {
    let mut t = gen.text(rng, len).into_bytes();
    t.truncate(len);
    t
}

/// Median over batches of `iters` calls of `f`, in nanoseconds per call.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (1 << 20) as f64 / (ns / 1e9)
}

pub fn measure(report: &mut Report, dir: &Path, seed: u64) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed ^ 0x9e1_0000_0000_0001);
    let gen = TextGen::new(&mut rng, 1200);
    let small = text_bytes(&mut rng, &gen, SMALL);
    let large = text_bytes(&mut rng, &gen, LARGE);

    for (name, data, iters) in [("512", &small, 20_000), ("22k", &large, 1_000)] {
        let ns = ns_per_call(iters, |_| {
            black_box(crc32(black_box(data)));
        });
        report.set(&format!("prim.crc32_mib_s.{name}"), mib_per_s(data.len(), ns), "MiB/s");
    }

    // One revision pair: the 22 KiB text and a copy with four small
    // dispersed edits, as consecutive wiki revisions differ.
    let mut edited = String::from_utf8(large.clone()).map_err(|e| e.to_string())?;
    gen.edit(&mut rng, &mut edited, 4);
    let target = edited.into_bytes();
    let encoder = DbDeltaEncoder::new(DbDeltaConfig::with_interval(64));
    let ns = ns_per_call(200, |_| {
        black_box(encoder.encode(black_box(&large), black_box(&target)));
    });
    report.set("prim.delta_encode_mib_s", mib_per_s(target.len(), ns), "MiB/s");
    let delta: Delta = encoder.encode(&large, &target);
    if delta.apply(&large).map_err(|e| e.to_string())? != target {
        return Err("delta apply did not reproduce the target revision".into());
    }
    let ns = ns_per_call(2_000, |_| {
        black_box(delta.apply(black_box(&large)).expect("verified above"));
    });
    report.set("prim.delta_apply_mib_s", mib_per_s(target.len(), ns), "MiB/s");

    for (name, data, n) in [("512", &small, 4_000usize), ("22k", &large, 1_000)] {
        let store_dir = dir.join(format!("prim-store-{name}"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let store =
            RecordStore::open(&store_dir, StoreConfig::default()).map_err(|e| e.to_string())?;
        // Fresh ids per batch: a put appends a new record.
        let mut next = 0u64;
        let put = ns_per_call(n, |_| {
            store.put(RecordId(next), StorageForm::Raw, data).expect("store put");
            next += 1;
        });
        let live = next;
        let get = ns_per_call(n, |i| {
            let rec = store.get(RecordId((i as u64 * 7919) % live)).expect("store get");
            black_box(rec);
        });
        let overwrite = ns_per_call(n, |i| {
            store
                .put(RecordId((i as u64 * 7919) % live), StorageForm::Raw, data)
                .expect("store overwrite");
        });
        let rec = store.get(RecordId(0)).map_err(|e| e.to_string())?;
        if rec.payload[..] != data[..] {
            return Err(format!("store get returned wrong bytes at {name}"));
        }
        report.set(&format!("prim.store_put_us.{name}"), put / 1e3, "us");
        report.set(&format!("prim.store_get_us.{name}"), get / 1e3, "us");
        report.set(&format!("prim.store_overwrite_us.{name}"), overwrite / 1e3, "us");
        drop(store);
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    Ok(())
}
