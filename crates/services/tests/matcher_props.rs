//! Property tests: the integer-counted `embed` and the word-at-a-time
//! `synth_face_into` reproduce, bit for bit, the per-byte originals kept
//! below as reference models — over lengths 0 to 70,000 plus the edges of
//! the 64-byte line, the 97-byte noise stride and the 8 × 65,793-byte
//! exactness bound, on random, all-`0x00` and all-`0xFF` bytes.
//!
//! A golden digest pins the images and kernel verdicts the application
//! runs on across commits.

use proptest::prelude::*;

use fractos_devices::Kernel;
use fractos_services::matcher::{
    embed, synth_face, synth_face_into, synth_faces_into, FaceVerifyKernel, EMBED_DIM,
};

/// The per-byte implementations the rewrite replaced, kept verbatim.
mod reference {
    use fractos_services::matcher::EMBED_DIM;

    const BINS: usize = 16;
    const BLOCKS: usize = 8;

    pub fn embed(image: &[u8]) -> [f32; EMBED_DIM] {
        let mut out = [0f32; EMBED_DIM];
        if image.is_empty() {
            return out;
        }
        // Intensity histogram, normalized.
        for &b in image {
            out[(b as usize) >> 4] += 1.0;
        }
        for v in out.iter_mut().take(BINS) {
            *v /= image.len() as f32;
        }
        // Coarse block means, normalized to [0, 1].
        let block = image.len().div_ceil(BLOCKS);
        for (i, chunk) in image.chunks(block).take(BLOCKS).enumerate() {
            let mean = chunk.iter().map(|&b| b as f32).sum::<f32>() / chunk.len() as f32;
            out[BINS + i] = mean / 255.0;
        }
        out
    }

    pub fn synth_face(id: u64, img_bytes: usize, noise_seed: u64) -> Vec<u8> {
        let mut state = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
        let mut noise = noise_seed;
        (0..img_bytes)
            .map(|i| {
                if i % 64 == 0 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                }
                let base = ((state >> (8 * (i % 8))) & 0xFF) as u8;
                if noise_seed != 0 && i % 97 == 0 {
                    noise = noise
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    base.wrapping_add((noise % 3) as u8)
                } else {
                    base
                }
            })
            .collect()
    }
}

/// The largest image for which `f32` accumulation is exact: every block
/// sum stays at most 65,793 × 255 = 2²⁴ − 1.
const EXACT_BOUND: usize = 8 * 65_793;

/// Lengths every run checks: empty, line and stride edges, one image, and
/// the exactness bound.
const EDGE_LENS: [usize; 9] = [0, 1, 63, 64, 65, 97, 4096, 4097, EXACT_BOUND];

const NOISE_SEEDS: [u64; 3] = [0, 1, u64::MAX];

/// Image contents: random bytes from a seed, all `0x00` or all `0xFF`.
#[derive(Debug, Clone, Copy)]
enum Fill {
    Random(u64),
    Zeros,
    Ones,
}

fn image(len: usize, fill: Fill) -> Vec<u8> {
    match fill {
        Fill::Random(seed) => {
            let mut state = seed;
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 56) as u8
                })
                .collect()
        }
        Fill::Zeros => vec![0x00; len],
        Fill::Ones => vec![0xFF; len],
    }
}

fn fills() -> impl Strategy<Value = Fill> {
    prop_oneof![
        any::<u64>().prop_map(Fill::Random),
        Just(Fill::Zeros),
        Just(Fill::Ones),
    ]
}

fn noise_seeds() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(1u64), Just(u64::MAX), any::<u64>()]
}

fn bits(features: [f32; EMBED_DIM]) -> [u32; EMBED_DIM] {
    features.map(f32::to_bits)
}

/// `synth_face_into` over a buffer of stale bytes, so a byte it failed to
/// write shows.
fn synth_into_dirty(id: u64, len: usize, noise_seed: u64) -> Vec<u8> {
    let mut out = vec![0xA5; len];
    synth_face_into(id, noise_seed, &mut out);
    out
}

#[test]
fn edge_lengths_match_the_reference() {
    for len in EDGE_LENS {
        for fill in [Fill::Random(len as u64), Fill::Zeros, Fill::Ones] {
            let img = image(len, fill);
            assert_eq!(
                bits(embed(&img)),
                bits(reference::embed(&img)),
                "embed, {len} bytes of {fill:?}"
            );
        }
        for noise in NOISE_SEEDS {
            for id in [0, 7, u64::MAX] {
                let want = reference::synth_face(id, len, noise);
                assert!(
                    synth_face(id, len, noise) == want,
                    "id {id}, {len} bytes, noise {noise}"
                );
                assert!(synth_into_dirty(id, len, noise) == want);
                assert_eq!(
                    bits(embed(&want)),
                    bits(reference::embed(&want)),
                    "embed of face {id}, {len} bytes, noise {noise}"
                );
            }
        }
    }
}

#[test]
fn batch_buffers_hold_consecutive_faces() {
    let (img, batch) = (97, 5);
    let mut out = vec![0xA5; img * batch + 3];
    synth_faces_into(40, img, 9, &mut out);
    for (i, face) in out.chunks_exact(img).enumerate() {
        assert_eq!(face, reference::synth_face(40 + i as u64, img, 9));
    }
    assert_eq!(
        out[img * batch..],
        [0xA5; 3],
        "a partial slot stays untouched"
    );
    synth_faces_into(0, 0, 9, &mut out[..0]);
}

proptest! {
    /// All 24 features are bit-identical to per-byte `f32` accumulation.
    #[test]
    fn embed_matches_the_reference(len in 0usize..70_001, fill in fills()) {
        let img = image(len, fill);
        prop_assert_eq!(
            bits(embed(&img)),
            bits(reference::embed(&img)),
            "{} bytes of {:?}",
            len,
            fill
        );
    }

    /// Images are byte-identical to the per-byte generator, through both
    /// entry points.
    #[test]
    fn synth_face_matches_the_reference(
        id in any::<u64>(),
        len in 0usize..70_001,
        noise in noise_seeds(),
    ) {
        let want = reference::synth_face(id, len, noise);
        let case = format!("id {id}, {len} bytes, noise {noise}");
        prop_assert!(synth_face(id, len, noise) == want, "{}", case);
        prop_assert!(synth_into_dirty(id, len, noise) == want, "{}", case);
    }
}

/// Captured by running this test at commit 3b40cc5, before `embed` and
/// `synth_face` were rewritten from per-byte loops.
const FACES_GOLDEN: u64 = 0xb9b0_14c0_b51b_f73b;

/// FNV-1a over the faces of ids 0..256 at 4 KiB for noise seeds 0..=8, and
/// over the kernel's verdicts for each noise seed's batch against the
/// noise-free references.
#[test]
fn faces_and_kernel_match_the_golden_digest() {
    const IDS: u64 = 256;
    const IMG: usize = 4096;
    let refs: Vec<u8> = (0..IDS).flat_map(|id| synth_face(id, IMG, 0)).collect();
    let mut corpus = refs.clone();
    for noise in 0..=8u64 {
        let mut batch: Vec<u8> = (0..IDS).flat_map(|id| synth_face(id, IMG, noise)).collect();
        if noise != 0 {
            corpus.extend_from_slice(&batch);
        }
        batch.extend_from_slice(&refs);
        corpus.extend(FaceVerifyKernel.run(&batch, &[IDS, IMG as u64]));
    }
    assert_eq!(
        fractos_core::fnv1a(&corpus),
        FACES_GOLDEN,
        "the faces or the kernel's verdicts changed ({} corpus bytes)",
        corpus.len()
    );
}
