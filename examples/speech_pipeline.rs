//! Speech-recognition scenario: the Table 1 audio pipeline with the
//! paper's LightStep/HeavyStep microbenchmark structure — every 5th clip
//! pays a much heavier enhancement cost, which MinatoLoader classifies
//! and defers without stalling batches. Audio/transcript pairing survives
//! the reordering (§6).
//!
//! Run with: `cargo run --release --example speech_pipeline`

use minato::core::prelude::*;
use minato::data::audio::{speech_pipeline, AudioClip};
use std::time::Instant;

fn main() {
    // LibriSpeech-like: short utterances; every 5th is "heavy" via a
    // much larger HeavyStep pass count — we encode that by generating
    // longer clips for those indices (more frames → more passes work).
    let dataset = FnDataset::new(60, |i| {
        let seconds = if i % 5 == 0 { 2.0 } else { 0.4 };
        Ok(AudioClip::generate(seconds, 16_000, i as u64))
    });
    // LightStep 3 passes; HeavyStep 40 passes (≈ the paper's 1:6+ cost
    // ratio at this clip length).
    let pipeline = speech_pipeline(3, 40);

    let t0 = Instant::now();
    let loader = MinatoLoader::builder(dataset, pipeline)
        .batch_size(6)
        .max_workers(3)
        .slow_workers(2)
        .warmup_samples(15)
        .seed(3)
        .build()
        .expect("valid configuration");

    let mut clips = 0usize;
    let mut transcripts_ok = true;
    for batch in loader.iter() {
        clips += batch.len();
        // §6: the audio-text pair must stay aligned under reordering.
        for (clip, meta) in batch.samples.iter().zip(&batch.meta) {
            let reference = AudioClip::generate(
                if meta.index % 5 == 0 { 2.0 } else { 0.4 },
                16_000,
                meta.index as u64,
            );
            transcripts_ok &= clip.transcript == reference.transcript;
        }
    }
    let stats = loader.stats();
    println!(
        "processed {clips} clips in {:.2?}; {} classified slow \
         (the adaptive P75 cutoff flags the heavy fifth plus the longest light clips)",
        t0.elapsed(),
        stats.slow_flagged
    );
    println!(
        "audio-text pairing preserved under reordering: {}",
        if transcripts_ok { "yes" } else { "NO (bug!)" }
    );
    println!(
        "preprocess ms: avg {:.1} p75 {:.1} p90 {:.1} max {:.1}",
        stats.preprocess_ms.avg,
        stats.preprocess_ms.p75,
        stats.preprocess_ms.p90,
        stats.preprocess_ms.max
    );
    assert!(transcripts_ok);
    assert_eq!(clips, 60);
}
