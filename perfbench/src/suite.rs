//! The eight `hermes-apps` kernels with seeded stimulus and the outputs
//! their Rust references (`*_ref`) compute for it.

use hermes_apps::{ai, image, sdr, vbn, TestDataGen};
use hermes_hls::ir::ArrayId;
use hermes_hls::simulate::ExternalMemory;
use hermes_hls::Design;

/// One kernel with its stimulus and expected output.
pub struct Kernel {
    /// Kernel name.
    pub name: &'static str,
    /// C-subset source.
    pub source: &'static str,
    /// Scalar arguments.
    pub args: Vec<i64>,
    /// External arrays, by id, before the call.
    pub buffers: Vec<(ArrayId, Vec<i64>)>,
    /// The array the kernel writes and what the reference says it holds.
    pub expected: (ArrayId, Vec<i64>),
}

impl Kernel {
    /// Co-simulate `design` against plain buffers; `true` when the output
    /// array matches the reference.
    pub fn check(&self, design: &Design) -> bool {
        let mut ext = ExternalMemory::buffers(self.buffers.clone());
        design.simulate_with_memory(&self.args, &mut ext).is_ok()
            && ext.buffer(self.expected.0) == Some(&self.expected.1)
    }
}

/// Frame size of the image kernels.
const W: usize = 16;
const H: usize = 12;

/// The suite for `seed`: sobel, conv3, histogram, fir, correlate, dft,
/// centroid, mlp.
pub fn suite(seed: u64) -> Vec<Kernel> {
    let mut g = TestDataGen::new(seed ^ 0x5eed_5eed_0000_0001);
    let frame = image::star_field(W, H, 5, g.next_u64());
    let conv_k = [1i64, 2, 1, 2, 4, 2, 1, 2, 1];
    let (fir_n, taps) = (32usize, sdr::boxcar_taps(8));
    let fir_x = g.vec_signed(fir_n + taps.len() - 1, 2000);
    let pattern = vec![1i64, -1, 1, 1, -1, 1, -1, -1];
    let offset = g.below(56) as usize;
    let signal = sdr::embed_pattern(64, &pattern, offset, 400, g.next_u64());
    let (dft_n, bins) = (16usize, 8usize);
    let tone = sdr::tone(dft_n, 1 + g.below(7) as usize, 1000);
    let (cos_t, sin_t) = sdr::dft_tables(dft_n, bins);
    let (inputs, hidden, outputs) = (6usize, 8usize, 3usize);
    let (w1, b1, w2, b2) = ai::synth_weights(inputs, hidden, outputs, g.next_u64());
    let x = g.vec_below(inputs, 256);
    let (lag, best) = sdr::correlate_ref(&signal, &pattern);
    let (cx, cy, mass) = vbn::centroid_ref(&frame, W, H, 50);
    let (w, h) = (W as i64, H as i64);
    vec![
        Kernel {
            name: "sobel",
            source: image::SOBEL_SOURCE,
            args: vec![w, h],
            buffers: vec![(ArrayId(0), frame.clone()), (ArrayId(1), vec![0; W * H])],
            expected: (ArrayId(1), image::sobel_ref(&frame, W, H)),
        },
        Kernel {
            name: "conv3",
            source: image::CONV3_SOURCE,
            args: vec![w, h],
            buffers: vec![
                (ArrayId(0), frame.clone()),
                (ArrayId(1), vec![0; W * H]),
                (ArrayId(2), conv_k.to_vec()),
            ],
            expected: (ArrayId(1), image::conv3_ref(&frame, &conv_k, W, H)),
        },
        Kernel {
            name: "histogram",
            source: image::HISTOGRAM_SOURCE,
            args: vec![w * h],
            buffers: vec![(ArrayId(0), frame.clone()), (ArrayId(1), vec![0; 256])],
            expected: (ArrayId(1), image::histogram_ref(&frame)),
        },
        Kernel {
            name: "fir",
            source: sdr::FIR_SOURCE,
            args: vec![fir_n as i64, taps.len() as i64],
            expected: (ArrayId(2), sdr::fir_ref(&fir_x, &taps, fir_n)),
            buffers: vec![
                (ArrayId(0), fir_x),
                (ArrayId(1), taps),
                (ArrayId(2), vec![0; fir_n]),
            ],
        },
        Kernel {
            name: "correlate",
            source: sdr::CORRELATE_SOURCE,
            args: vec![signal.len() as i64, pattern.len() as i64],
            buffers: vec![
                (ArrayId(0), signal),
                (ArrayId(1), pattern),
                (ArrayId(2), vec![0; 2]),
            ],
            expected: (ArrayId(2), vec![lag, best]),
        },
        Kernel {
            name: "dft",
            source: sdr::DFT_POWER_SOURCE,
            args: vec![dft_n as i64, bins as i64],
            expected: (ArrayId(3), sdr::dft_power_ref(&tone, &cos_t, &sin_t, bins)),
            buffers: vec![
                (ArrayId(0), tone),
                (ArrayId(1), cos_t),
                (ArrayId(2), sin_t),
                (ArrayId(3), vec![0; bins]),
            ],
        },
        Kernel {
            name: "centroid",
            source: vbn::CENTROID_SOURCE,
            args: vec![w, h, 50],
            buffers: vec![(ArrayId(0), frame), (ArrayId(1), vec![0; 3])],
            expected: (ArrayId(1), vec![cx, cy, mass]),
        },
        Kernel {
            name: "mlp",
            source: ai::MLP_SOURCE,
            args: vec![inputs as i64, hidden as i64, outputs as i64],
            expected: (
                ArrayId(5),
                ai::mlp_ref(&x, &w1, &b1, &w2, &b2, inputs, hidden, outputs),
            ),
            buffers: vec![
                (ArrayId(0), x),
                (ArrayId(1), w1),
                (ArrayId(2), b1),
                (ArrayId(3), w2),
                (ArrayId(4), b2),
                (ArrayId(5), vec![0; outputs]),
            ],
        },
    ]
}
