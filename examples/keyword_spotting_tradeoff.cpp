// Scenario: always-on inference under a latency deadline.
//
// The paper's motivation (§I) is real-time TinyML: a model that misses
// its deadline is useless no matter how accurate. This example inverts
// the quickstart's question — instead of "how fast can I get within an
// accuracy budget?" it asks "what is the most accurate design that meets
// a hard latency deadline?", the query an always-on keyword-spotting or
// anomaly-detection deployment actually runs. It sweeps deadlines from
// generous to brutal and prints the best reachable accuracy for each,
// marking where the exact baselines (CMSIS-NN, X-CUBE-AI) drop out.
#include <algorithm>
#include <cstdio>

#include "src/core/ataman.hpp"

int main() {
  using namespace ataman;

  std::printf("Scenario: hard real-time deadlines on the LeNet-class "
              "model\n\n");
  const ZooSpec spec = lenet_spec();
  const QModel model = get_or_build_qmodel(spec);
  const SynthCifar data = make_synth_cifar(spec.data);

  PipelineOptions options;
  options.dse.tau_step = 0.01;
  options.dse.eval_images = 384;
  AtamanPipeline pipeline(&model, &data.train, &data.test, options);

  const DseOutcome outcome = pipeline.explore();
  const DeployReport cmsis = pipeline.deploy_engine("cmsis", 400);
  const DeployReport xcube = pipeline.deploy_engine("xcube", 400);
  const BoardSpec board = pipeline.options().board;

  std::printf("exact baselines: CMSIS-NN %.1f ms @ %.3f, X-CUBE-AI %.1f ms "
              "@ %.3f\n\n",
              cmsis.latency_ms, cmsis.top1_accuracy, xcube.latency_ms,
              xcube.top1_accuracy);
  std::printf("%-14s %-22s %-10s %s\n", "deadline(ms)", "best design",
              "accuracy", "note");

  for (const double deadline : {90.0, 70.0, 60.0, 50.0, 40.0, 30.0, 20.0}) {
    // Most accurate approximate design meeting the deadline.
    int best = -1;
    for (size_t i = 0; i < outcome.results.size(); ++i) {
      const DseResult& r = outcome.results[i];
      if (board.cycles_to_ms(r.cycles) > deadline) continue;
      if (best < 0 ||
          r.accuracy > outcome.results[static_cast<size_t>(best)].accuracy)
        best = static_cast<int>(i);
    }
    const char* note = "";
    if (cmsis.latency_ms <= deadline) {
      note = "(exact CMSIS also fits)";
    } else if (xcube.latency_ms <= deadline) {
      note = "(X-CUBE fits, CMSIS does not)";
    } else {
      note = "(no exact library fits -> approximation required)";
    }
    if (best < 0) {
      std::printf("%-14.0f %-22s %-10s %s\n", deadline, "none", "-", note);
      continue;
    }
    const DseResult& r = outcome.results[static_cast<size_t>(best)];
    std::printf("%-14.0f %-22s %-10.3f %s\n", deadline,
                r.config.to_string().c_str(), r.accuracy, note);
  }

  std::printf("\nThe region where no exact library meets the deadline but\n"
              "approximate designs still deliver usable accuracy is the\n"
              "trade-off space the paper's framework opens up (SIII: 'an\n"
              "accuracy-latency trade-off that was previously unattainable\n"
              "for optimized libraries like CMSIS').\n");
  return 0;
}
