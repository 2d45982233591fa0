//! The full CLI workflow as a user would run it: generate → train →
//! evaluate → attack, through the `simpadv-cli` library API.

use simpadv_cli::{run, Args};
use simpadv_serve::ServedModel;

fn cli(line: &str) -> Result<String, String> {
    let args =
        Args::parse(line.split_whitespace().map(str::to_string)).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    run(&args, &mut out).map_err(|e| e.to_string())?;
    Ok(String::from_utf8(out).expect("utf8"))
}

#[test]
fn generate_train_evaluate_attack_workflow() {
    let dir = std::env::temp_dir().join("simpadv-suite-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("workflow.json");
    let model = model_path.to_str().unwrap();

    // generate: shows dataset stats and previews
    let text = cli("generate --dataset fashion --samples 10 --preview 1").unwrap();
    assert!(text.contains("generated 10 'fashion' images"));

    // train a quick robust model and checkpoint it
    let text = cli(&format!(
        "train --dataset mnist --method proposed --epochs 4 --samples 120 --out {model}"
    ))
    .unwrap();
    assert!(text.contains("training proposed"));

    // the written model is a valid sealed model file with metadata
    let saved = ServedModel::load_file(&model_path).unwrap();
    assert_eq!(saved.trained_on, "mnist");
    assert_eq!(saved.method, "proposed");

    // evaluate prints the Table-I column set
    let text = cli(&format!("evaluate --model {model} --dataset mnist --samples 50")).unwrap();
    for col in ["original", "fgsm", "bim(10)", "bim(30)"] {
        assert!(text.contains(col), "missing column {col} in:\n{text}");
    }

    // attack renders before/after ASCII art
    let text =
        cli(&format!("attack --model {model} --dataset mnist --attack pgd10 --index 2")).unwrap();
    assert!(text.contains("true label 2"));
    assert!(text.contains("pgd(10)"));
}

#[test]
fn serve_verb_answers_requests_then_shuts_down() {
    use simpadv_serve::{client, PredictRequest};

    let dir = std::env::temp_dir().join("simpadv-cli-serve-test");
    let _ = std::fs::remove_dir_all(&dir);
    let model_dir = dir.join("ckpts");
    let store = simpadv_resilience::CheckpointStore::open(&model_dir).unwrap();
    let spec = simpadv::ModelSpec::small_mlp();
    ServedModel::capture(&spec, &spec.build(6), "mnist", "test").publish(&store).unwrap();

    let data = simpadv_data::SynthDataset::Mnist.generate(&simpadv_data::SynthConfig::new(4, 13));
    let addr_file = dir.join("addr.txt");
    let line = format!(
        "serve --model-dir {} --requests 4 --addr-file {} --batch-max 2",
        model_dir.display(),
        addr_file.display()
    );

    // The verb blocks until 4 requests are served, so drive it from a
    // sibling thread that discovers the bound port through --addr-file.
    let rt = simpadv_runtime::Runtime::new(2);
    let (text, predictions) = rt.par_join(
        || cli(&line).unwrap(),
        || {
            let timer = simpadv_trace::clock::WallTimer::start();
            let addr = loop {
                if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                    if !addr.trim().is_empty() {
                        break addr.trim().to_string();
                    }
                }
                assert!(timer.elapsed_us() < 10_000_000, "server never wrote --addr-file");
            };
            client::wait_ready(&addr, 5_000_000).unwrap();
            (0..data.len())
                .map(|i| {
                    let request = PredictRequest {
                        pixels: data.images().row(i).into_vec(),
                        label: Some(data.labels()[i]),
                        adversarial: false,
                    };
                    match client::predict(&addr, &request).unwrap() {
                        client::PredictOutcome::Predicted(resp) => resp.prediction,
                        client::PredictOutcome::Rejected(r) => panic!("rejected: {r:?}"),
                    }
                })
                .collect::<Vec<_>>()
        },
    );
    assert_eq!(predictions.len(), 4);
    assert!(text.contains("serving generation 1"), "missing banner in:\n{text}");
    assert!(text.contains("served 4 request(s)"), "missing shutdown line in:\n{text}");
}

#[test]
fn cli_surfaces_helpful_errors() {
    let err = cli("evaluate --dataset mnist").unwrap_err();
    assert!(err.contains("--model"), "unhelpful error: {err}");
    let err = cli("train --dataset mars").unwrap_err();
    assert!(err.contains("mars"));
    let err = cli("attack --model /nonexistent.json --dataset mnist").unwrap_err();
    assert!(!err.is_empty());
}
