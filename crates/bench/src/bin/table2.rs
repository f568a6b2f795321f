//! Prints **Table II**: the evaluation configuration, as encoded by the
//! workspace presets.

use c4::prelude::*;
use c4_bench::{banner, parse_cli};

fn main() {
    parse_cli(1, &[]);
    banner(
        "Table II — evaluation configuration",
        "GPT-175B (C4D); allreduce benchmarks + GPT-22B/Llama-13B/GPT-175B \
         (C4P); Megatron-LM & DeepSpeed; H800×8 + BlueField-3×8 (200Gbps×2); \
         3-tier Clos fat-tree, 1:1 oversubscription",
    );
    let cfg = ClosConfig::testbed_128();
    let topo = Topology::build(&cfg);
    println!("testbed preset `ClosConfig::testbed_128()`:");
    println!("  nodes                    {}", cfg.nodes);
    println!("  GPUs/node                {}", cfg.gpus_per_node);
    println!("  NICs/node (dual-port)    {}", cfg.nics_per_node);
    println!(
        "  port bandwidth           {} Gbps ×2 (bonded 400)",
        cfg.port_gbps
    );
    println!("  NVLink busbw cap         {} Gbps", cfg.nvlink_gbps);
    println!("  leaf switches            {}", cfg.num_leaves);
    println!("  spine switches           {}", cfg.num_spines);
    println!("  uplinks per leaf-spine   {}", cfg.uplinks_per_leaf_spine);
    println!("  oversubscription         {:.2}:1", cfg.oversubscription());
    println!("  total GPUs               {}", topo.num_gpus());
    println!("  directed links           {}", topo.num_links());
    println!();
    println!("benchmark jobs (Fig 14 presets):");
    for spec in [
        JobSpec::gpt22b_tp8_dp16(),
        JobSpec::llama7b_dp128_zero(),
        JobSpec::gpt175b_tp8_pp8_ga16(),
    ] {
        println!(
            "  {:<36} tp={} pp={} dp={} ga={} grad/rank={}",
            spec.name,
            spec.tp,
            spec.pp,
            spec.dp,
            spec.ga,
            spec.grad_bytes_per_rank()
        );
    }
}
