//! The face-verification matcher (§5 "Application: Face Verification").
//!
//! The paper's application verifies a person's identity by matching an
//! input photo against the database photo stored for the claimed ID
//! (the paper cites GPUnet's face-verification workload).
//! The exact CUDA kernel is irrelevant to the system claims; what matters
//! is that a *real computation* runs over the transferred bytes so tests
//! can check results end to end. We use a lightweight, deterministic
//! embedding: a 16-bin intensity histogram plus block means, compared by
//! L1 distance — robust to small noise, discriminative for unrelated
//! images.

use fractos_devices::Kernel;

/// Number of histogram bins in the embedding.
const BINS: usize = 16;
/// Number of coarse block-mean features.
const BLOCKS: usize = 8;

/// Embedding dimension.
pub const EMBED_DIM: usize = BINS + BLOCKS;

/// Computes the embedding of one image (any byte length ≥ 1).
///
/// Counts in integers and converts each feature to `f32` once. Up to
/// 8 × 65,793 bytes every bin count and block sum stays below 2²⁴, so the
/// result is bit-identical to accumulating in `f32` byte by byte; beyond
/// that bound the counts stay exact where `f32` accumulation would round.
pub fn embed(image: &[u8]) -> [f32; EMBED_DIM] {
    let mut out = [0f32; EMBED_DIM];
    if image.is_empty() {
        return out;
    }
    // Intensity histogram, normalized. Byte values go into four
    // interleaved tables, so neighbouring bytes never wait on one counter;
    // each run of 16 values folds into one bin.
    let mut counts = [[0u32; 256]; 4];
    let mut quads = image.chunks_exact(4);
    for quad in &mut quads {
        for (table, &b) in counts.iter_mut().zip(quad) {
            table[usize::from(b)] += 1;
        }
    }
    for &b in quads.remainder() {
        counts[0][usize::from(b)] += 1;
    }
    let len = image.len() as f32;
    for (bin, v) in out.iter_mut().take(BINS).enumerate() {
        let n: u64 = counts
            .iter()
            .flat_map(|table| &table[bin * 16..bin * 16 + 16])
            .map(|&c| u64::from(c))
            .sum();
        *v = n as f32 / len;
    }
    // Coarse block means, normalized to [0, 1]. A 256-byte piece sums
    // exactly in a `u16`; the pieces add up in a `u64`.
    let block = image.len().div_ceil(BLOCKS);
    for (v, chunk) in out[BINS..].iter_mut().zip(image.chunks(block)) {
        let sum: u64 = chunk
            .chunks(256)
            .map(|piece| u64::from(piece.iter().map(|&b| u16::from(b)).sum::<u16>()))
            .sum();
        *v = sum as f32 / chunk.len() as f32 / 255.0;
    }
    out
}

/// L1 distance between two embeddings, scaled to `0..=255`.
pub fn distance(a: &[f32; EMBED_DIM], b: &[f32; EMBED_DIM]) -> u8 {
    let d: f32 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    // Maximum possible L1 distance is ≈ 2 (histograms) + 8 (blocks); scale
    // so typical unrelated images land well above the threshold.
    (d * 100.0).clamp(0.0, 255.0) as u8
}

/// Distance threshold below which two images count as the same face.
pub const MATCH_THRESHOLD: u8 = 20;

/// Whether two images match.
pub fn matches(query: &[u8], reference: &[u8]) -> bool {
    distance(&embed(query), &embed(reference)) < MATCH_THRESHOLD
}

/// The GPU kernel: input is `batch` query images followed by `batch`
/// database images, each `img` bytes; output is one distance byte per pair.
///
/// Kernel parameters: `[batch, img]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaceVerifyKernel;

/// The kernel id under which GPU adaptors register [`FaceVerifyKernel`].
pub const FACE_VERIFY_KERNEL: u64 = 0xFACE;

impl Kernel for FaceVerifyKernel {
    fn run(&self, input: &[u8], params: &[u64]) -> Vec<u8> {
        let batch = params.first().copied().unwrap_or(1).max(1);
        let img = params.get(1).copied().unwrap_or(0);
        let need = batch.checked_mul(img).and_then(|half| half.checked_mul(2));
        if img == 0 || need.is_none_or(|need| (input.len() as u64) < need) {
            // Short or oversized launch: "no match" for each pair, but
            // never more output bytes than input bytes.
            return vec![u8::MAX; batch.min(input.len() as u64) as usize];
        }
        // Both halves fit in `input`, so neither factor exceeds its length.
        let img = img as usize;
        let (queries, refs) = input.split_at(batch as usize * img);
        queries
            .chunks_exact(img)
            .zip(refs.chunks_exact(img))
            .map(|(q, r)| distance(&embed(q), &embed(r)))
            .collect()
    }

    fn items(&self, _input_len: u64, params: &[u64]) -> u64 {
        params.first().copied().unwrap_or(1).max(1)
    }
}

/// Deterministically generates a synthetic "face photo" for an identity.
///
/// Same id ⇒ same image; a non-zero `noise_seed` adds mild per-capture
/// noise that stays below the match threshold.
pub fn synth_face(id: u64, img_bytes: usize, noise_seed: u64) -> Vec<u8> {
    let mut image = vec![0; img_bytes];
    synth_face_into(id, noise_seed, &mut image);
    image
}

/// Writes the [`synth_face`] image of `id` into all of `out`.
///
/// The byte stream: a 64-bit LCG seeded from `id` steps once at the start
/// of every 64-byte line, and the line repeats that state's eight
/// little-endian bytes (a short last line takes a prefix of them). With a
/// non-zero `noise_seed`, bytes 0, 97, 194, … then each add `0..=2`
/// (wrapping), drawn as `% 3` of a second LCG that starts at `noise_seed`
/// and steps once per noised byte.
pub fn synth_face_into(id: u64, noise_seed: u64, out: &mut [u8]) {
    let mut state = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    for line in out.chunks_mut(64) {
        state = lcg_step(state);
        let word = state.to_le_bytes();
        let mut words = line.chunks_exact_mut(8);
        for w in &mut words {
            w.copy_from_slice(&word);
        }
        let tail = words.into_remainder();
        tail.copy_from_slice(&word[..tail.len()]);
    }
    if noise_seed != 0 {
        let mut noise = noise_seed;
        for b in out.iter_mut().step_by(97) {
            noise = lcg_step(noise);
            *b = b.wrapping_add((noise % 3) as u8);
        }
    }
}

/// Writes the images of ids `first_id`, `first_id + 1`, … side by side
/// into `out`, `img_bytes` each: one batch buffer, no per-image `Vec`.
pub fn synth_faces_into(first_id: u64, img_bytes: usize, noise_seed: u64, out: &mut [u8]) {
    if img_bytes == 0 {
        return;
    }
    for (id, image) in (first_id..).zip(out.chunks_exact_mut(img_bytes)) {
        synth_face_into(id, noise_seed, image);
    }
}

/// One step of the 64-bit LCG (Knuth's MMIX constants) behind the images.
fn lcg_step(state: u64) -> u64 {
    state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_images_match() {
        let img = synth_face(42, 4096, 0);
        assert!(matches(&img, &img));
        assert_eq!(distance(&embed(&img), &embed(&img)), 0);
    }

    #[test]
    fn noisy_capture_still_matches() {
        let reference = synth_face(7, 4096, 0);
        let capture = synth_face(7, 4096, 99);
        assert!(matches(&capture, &reference));
    }

    #[test]
    fn different_identities_do_not_match() {
        for (a, b) in [(1u64, 2u64), (10, 11), (100, 200)] {
            let ia = synth_face(a, 4096, 0);
            let ib = synth_face(b, 4096, 0);
            assert!(!matches(&ia, &ib), "ids {a} and {b} must differ");
        }
    }

    #[test]
    fn kernel_processes_batches() {
        let img = 1024usize;
        let batch = 4usize;
        let mut input = Vec::new();
        // Queries: ids 0..4 (with noise); refs: ids 0,1,9,3.
        for id in 0..batch as u64 {
            input.extend(synth_face(id, img, 5));
        }
        for id in [0u64, 1, 9, 3] {
            input.extend(synth_face(id, img, 0));
        }
        let out = FaceVerifyKernel.run(&input, &[batch as u64, img as u64]);
        assert_eq!(out.len(), batch);
        assert!(out[0] < MATCH_THRESHOLD);
        assert!(out[1] < MATCH_THRESHOLD);
        assert!(out[2] >= MATCH_THRESHOLD, "id 2 vs 9 must mismatch");
        assert!(out[3] < MATCH_THRESHOLD);
    }

    #[test]
    fn kernel_rejects_short_input() {
        let out = FaceVerifyKernel.run(&[0; 10], &[4, 1024]);
        assert_eq!(out, vec![u8::MAX; 4]);
    }

    #[test]
    fn kernel_rejects_a_huge_batch_without_allocating_it() {
        let out = FaceVerifyKernel.run(&[0; 10], &[1 << 40, 4096]);
        assert_eq!(out, vec![u8::MAX; 10]);
    }

    #[test]
    fn kernel_rejects_overflowing_launch_parameters() {
        let out = FaceVerifyKernel.run(&[0; 10], &[u64::MAX, u64::MAX]);
        assert_eq!(out, vec![u8::MAX; 10]);
    }

    #[test]
    fn kernel_item_count_is_batch() {
        assert_eq!(FaceVerifyKernel.items(0, &[64, 4096]), 64);
        assert_eq!(FaceVerifyKernel.items(0, &[]), 1);
    }

    #[test]
    fn synth_faces_are_deterministic() {
        assert_eq!(synth_face(5, 256, 0), synth_face(5, 256, 0));
        assert_ne!(synth_face(5, 256, 0), synth_face(6, 256, 0));
    }

    #[test]
    fn embed_handles_degenerate_inputs() {
        assert_eq!(embed(&[]), [0f32; EMBED_DIM]);
        let one = embed(&[128]);
        assert!(one.iter().any(|&v| v > 0.0));
    }
}
