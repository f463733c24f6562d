//! Workload inputs, generated from the seed during set-up and handed to
//! the program only as `.rigid` text.

use rigid_dag::gen::{self, TaskSampler};
use rigid_dag::{format, Instance, StableHasher};

/// Platform size of every generated instance.
pub const PROCS: u32 = 64;

/// Input sizes: `Full` for measurement, `Tiny` for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One generated instance: the file name the CLI sees, its `.rigid`
/// text, and the generated instance it was written from.
pub struct Doc {
    pub name: String,
    pub text: String,
    pub inst: Instance,
}

impl Doc {
    fn new(name: &str, inst: Instance) -> Doc {
        Doc {
            name: format!("{name}.rigid"),
            text: format::write(&inst),
            inst,
        }
    }

    pub fn tasks(&self) -> usize {
        self.inst.len()
    }
}

/// A StableHasher fingerprint of the documents' names and texts: equal
/// fingerprints mean two runs measured identical inputs.
pub fn fingerprint(docs: &[Doc]) -> u64 {
    let mut h = StableHasher::new();
    for d in docs {
        h.write_str(&d.name);
        h.write_str(&d.text);
    }
    h.finish()
}

/// The sub-seed of input `k` under workload seed `seed`.
fn sub(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(64).wrapping_add(k)
}

/// `cli-large`: chains (12,000 tasks), layered (about 12,000) and
/// edge-heavy Erdős–Rényi (10,000) documents.
pub fn cli_docs(seed: u64, scale: Scale) -> Vec<Doc> {
    let s = TaskSampler::default_mix();
    let (chains, chain_len, layers, width, erdos_n) = match scale {
        Scale::Full => (60, 200, 800, 29, 10_000),
        Scale::Tiny => (4, 10, 10, 9, 60),
    };
    vec![
        Doc::new(
            "chains",
            gen::chains(sub(seed, 0), chains, chain_len, &s, PROCS),
        ),
        Doc::new(
            "layered",
            gen::layered(sub(seed, 1), layers, width, &s, PROCS),
        ),
        Doc::new(
            "erdos",
            gen::erdos_dag(sub(seed, 2), erdos_n, 4.0 / erdos_n as f64, &s, PROCS),
        ),
    ]
}

/// `campaign`: one layered instance of about 5×10³ tasks.
pub fn campaign_doc(seed: u64, scale: Scale) -> Doc {
    let (layers, width) = match scale {
        Scale::Full => (500, 19),
        Scale::Tiny => (10, 9),
    };
    let inst = gen::layered(
        sub(seed, 0),
        layers,
        width,
        &TaskSampler::default_mix(),
        PROCS,
    );
    Doc::new("campaign", inst)
}

/// `serve-small`: a pool of layered jobs of about 100 tasks each.
pub fn serve_docs(seed: u64, scale: Scale) -> Vec<Doc> {
    let count = match scale {
        Scale::Full => 64,
        Scale::Tiny => 4,
    };
    (0..count)
        .map(|k| {
            let inst = gen::layered(sub(seed, k), 10, 19, &TaskSampler::default_mix(), 16);
            Doc::new(&format!("job{k}"), inst)
        })
        .collect()
}
