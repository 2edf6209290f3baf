//! Runs every experiment (Tables 2-6, Figures 2-3) in sequence, writing
//! all artifacts under the output directory. See EXPERIMENTS.md.
/// An experiment entry point: args in, tables + JSON record out.
type Experiment = fn(&parj_bench::Args) -> (Vec<parj_bench::Table>, serde_json::Value);

fn main() {
    let base = parj_bench::Args::parse(0);
    let experiments: [(&str, Experiment); 13] = [
        ("table2", parj_bench::experiments::table2),
        ("table3", parj_bench::experiments::table3),
        ("table4", parj_bench::experiments::table4),
        ("table5", parj_bench::experiments::table5),
        ("table6", parj_bench::experiments::table6),
        ("fig2", parj_bench::experiments::fig2),
        ("fig3", parj_bench::experiments::fig3),
        ("ablation", parj_bench::ablation::ablation),
        ("metrics_overhead", parj_bench::experiments::metrics_overhead),
        ("cache_effect", parj_bench::experiments::cache_effect),
        ("delta", parj_bench::experiments::delta),
        ("serve", parj_bench::serve::serve),
        ("locks", parj_bench::locks::locks),
    ];
    for (name, f) in experiments {
        let mut args = base.clone();
        if base.scale == 0 {
            args.scale = parj_bench::default_scale(name);
        }
        eprintln!("== running {name} (scale {}) ==", args.scale);
        let (tables, json) = f(&args);
        parj_bench::write_outputs(&args.out, name, &tables, json);
    }
}
