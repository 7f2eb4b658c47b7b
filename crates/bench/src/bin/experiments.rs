//! Experiment driver: regenerates every figure/theorem artifact.
//!
//! ```text
//! cargo run --release -p waves-bench --bin experiments -- list
//! cargo run --release -p waves-bench --bin experiments -- fig2
//! cargo run --release -p waves-bench --bin experiments -- all
//! ```

use waves_bench::EXPERIMENTS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" || args[0] == "--help" {
        println!("usage: experiments <id> [<id> ...] | all | list\n");
        println!("available experiments:");
        for (id, desc, _) in EXPERIMENTS {
            println!("  {id:<18} {desc}");
        }
        return;
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|&(id, _, _)| id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            println!("\n{}\n", "=".repeat(72));
        }
        let Some(&(_, _, run)) = EXPERIMENTS.iter().find(|&&(known, _, _)| known == *id) else {
            eprintln!("unknown experiment id: {id} (try `experiments list`)");
            std::process::exit(2);
        };
        let t0 = std::time::Instant::now();
        run();
        println!("\n[{} finished in {:.2?}]", id, t0.elapsed());
    }
    // Machine-checkable verdicts: any FAIL line anywhere above turns
    // the whole run into a nonzero exit, so CI gates on the exit code
    // instead of scraping stdout.
    if waves_bench::verdict::any_failed() {
        eprintln!("\none or more experiments reported FAIL");
        std::process::exit(1);
    }
}
