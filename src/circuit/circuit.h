#ifndef PITRACT_CIRCUIT_CIRCUIT_H_
#define PITRACT_CIRCUIT_CIRCUIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cost_meter.h"
#include "common/heap_bytes.h"
#include "common/result.h"

namespace pitract {
namespace circuit {

/// Gate identifier (index into the circuit's gate sequence).
using GateId = int32_t;

enum class GateType {
  kInput = 0,   // leaf: reads assignment[input_ordinal]
  kConstFalse,  // leaf constants
  kConstTrue,
  kNot,   // 1 input
  kAnd,   // 2 inputs
  kOr,    // 2 inputs
  kNand,  // 2 inputs
};

std::string GateTypeName(GateType type);

/// One gate of a Boolean circuit.
struct Gate {
  GateType type = GateType::kConstFalse;
  /// Operand gate ids; all must be < this gate's own id (the standard
  /// topologically-sorted tuple encoding ᾱ of [21], which the paper's CVP
  /// statement assumes).
  GateId lhs = -1;
  GateId rhs = -1;
  /// For kInput gates: index into the assignment vector.
  int32_t input_ordinal = -1;
};

/// A Boolean circuit α: a DAG of gates in topological id order with one
/// designated output (Section 4(8)). The Circuit Value Problem instance is
/// (ᾱ, x₁..xₙ, y): does output y evaluate to true on the given inputs?
class Circuit {
 public:
  Circuit() = default;

  /// Gate constructors return the new gate's id.
  GateId AddInput();
  GateId AddConst(bool value);
  GateId AddNot(GateId a);
  GateId AddBinary(GateType type, GateId a, GateId b);
  GateId AddAnd(GateId a, GateId b) { return AddBinary(GateType::kAnd, a, b); }
  GateId AddOr(GateId a, GateId b) { return AddBinary(GateType::kOr, a, b); }
  GateId AddNand(GateId a, GateId b) {
    return AddBinary(GateType::kNand, a, b);
  }

  void set_output(GateId y) { output_ = y; }
  GateId output() const { return output_; }

  int32_t num_gates() const { return static_cast<int32_t>(gates_.size()); }
  int32_t num_inputs() const { return num_inputs_; }
  const Gate& gate(GateId id) const { return gates_[static_cast<size_t>(id)]; }

  /// Structural checks: operand ids precede gate ids, arities match types,
  /// the output is a valid gate.
  Status Validate() const;

  /// Are all gates in {input, const, and, or} (no negation)?
  bool IsMonotone() const;
  /// Are all non-leaf gates NAND?
  bool IsNandOnly() const;

  /// Evaluates every gate under `assignment` (size must equal
  /// num_inputs()). Work Θ(#gates); depth charged as the circuit's *level
  /// depth* — a circuit evaluates in parallel time proportional to its
  /// depth, which is what separates NC-like shallow circuits from the
  /// P-complete general case.
  Result<std::vector<char>> EvaluateAll(const std::vector<char>& assignment,
                                        CostMeter* meter) const;

  /// Value of the designated output.
  Result<bool> Evaluate(const std::vector<char>& assignment,
                        CostMeter* meter) const;

  /// Level depth: 1 + max over paths of gate count (leaves are level 0).
  int64_t Depth() const;

  /// Heap bytes of the gate array, allocator chunks included (the Circuit
  /// object itself is its holder's to count).
  size_t HeapBytes() const { return VectorHeapBytes(gates_); }

  /// Σ*-encoding of ᾱ (gate tuples + output id). Round-trips via Decode.
  std::string Encode() const;
  static Result<Circuit> Decode(std::string_view encoded);

 private:
  std::vector<Gate> gates_;
  int32_t num_inputs_ = 0;
  GateId output_ = -1;
};

/// A full CVP instance: circuit, input assignment, designated output (the
/// circuit's output gate). The decision question is Q(instance) = value.
struct CvpInstance {
  Circuit circuit;
  std::vector<char> assignment;

  std::string Encode() const;
  static Result<CvpInstance> Decode(std::string_view encoded);
};

}  // namespace circuit
}  // namespace pitract

#endif  // PITRACT_CIRCUIT_CIRCUIT_H_
