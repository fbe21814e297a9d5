"""Walk through the autodiff tape on a tiny ridge-regression problem.

The engine records every op into a linear tape; backward() replays the
tape once in reverse. Here we fit y = X w by gradient descent with the
same Adam optimizer the model training uses, then verify one gradient
against finite differences by hand. As in the model, w lives in a
ModelParams: its value and gradient are views into one flat value
vector and one flat gradient vector, which Adam updates as a whole.
"""

import numpy as np

from segbert import AdamState, ModelParams, Tape, adam_step

rng = np.random.default_rng(0)
X = rng.normal(size=(20, 3))
true_w = np.array([[1.5], [-2.0], [0.25]])
y = X @ true_w + 0.01 * rng.normal(size=(20, 1))

params = ModelParams({"w": (3, 1)})  # one 3 x 1 tensor, zeroed
w = params["w"]
state = AdamState.for_params(params.values, learning_rate=0.05)

print("step  loss")
for step in range(60):
    tape = Tape()
    pred = tape.matmul(tape.constant(X), w)
    loss = tape.mse(pred, y)
    tape.backward(loss)
    if step % 10 == 0:
        print(f"{step:4d}  {float(loss.value[0, 0]):.6f}")
    adam_step(params.values, params.grads, state)
    params.zero_grads()

print("\nfitted w:", np.round(w.value.ravel(), 3))
print("true   w:", true_w.ravel())

# one entry of the gradient, checked against a central difference
tape = Tape()
loss = tape.mse(tape.matmul(tape.constant(X), w), y)
tape.backward(loss)
analytic = w.grad[0, 0]

h = 1e-6
w.value[0, 0] += h
# a tape per evaluation keeps the two forwards independent
tape_hi = Tape()
hi = float(tape_hi.mse(tape_hi.matmul(tape_hi.constant(X), w), y).value[0, 0])
w.value[0, 0] -= 2 * h
tape_lo = Tape()
lo = float(tape_lo.mse(tape_lo.matmul(tape_lo.constant(X), w), y).value[0, 0])
w.value[0, 0] += h

numeric = (hi - lo) / (2 * h)
print(f"\nanalytic dL/dw[0] = {analytic:.8f}")
print(f"numeric  dL/dw[0] = {numeric:.8f}")
print(f"tape length of the last forward: {len(tape.entries)} entries")
