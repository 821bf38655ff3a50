package bench

// List- and symbol-manipulation Gabriel benchmarks: deriv/dderiv,
// destruct, div-iter/div-rec, traverse.

func init() {
	register(Program{
		Name:        "deriv",
		Description: "symbolic differentiation (higher-order map)",
		Source: `
(define (deriv-aux a) (list '/ (deriv a) a))
(define (deriv a)
  (cond
    [(not (pair? a)) (if (eq? a 'x) 1 0)]
    [(eq? (car a) '+) (cons '+ (map deriv (cdr a)))]
    [(eq? (car a) '-) (cons '- (map deriv (cdr a)))]
    [(eq? (car a) '*) (list '* a (cons '+ (map deriv-aux (cdr a))))]
    [(eq? (car a) '/)
     (list '-
           (list '/ (deriv (cadr a)) (caddr a))
           (list '/ (cadr a) (list '* (caddr a) (caddr a) (deriv (caddr a)))))]
    [else 'error]))
(define (run n)
  (if (zero? n)
      'done
      (begin
        (deriv '(+ (* 3 x x) (* a x x) (* b x) 5))
        (run (- n 1)))))
(run 2000)`,
		Expect: "done",
	})

	register(Program{
		Name:        "dderiv",
		Description: "table-driven symbolic differentiation",
		Source: `
(define (dderiv-aux a) (list '/ (dderiv a) a))
(define (+dderiv a) (cons '+ (map dderiv (cdr a))))
(define (-dderiv a) (cons '- (map dderiv (cdr a))))
(define (*dderiv a) (list '* a (cons '+ (map dderiv-aux (cdr a)))))
(define (/dderiv a)
  (list '-
        (list '/ (dderiv (cadr a)) (caddr a))
        (list '/ (cadr a) (list '* (caddr a) (caddr a) (dderiv (caddr a))))))
(define table
  (list (cons '+ +dderiv) (cons '- -dderiv) (cons '* *dderiv) (cons '/ /dderiv)))
(define (dderiv a)
  (if (not (pair? a))
      (if (eq? a 'x) 1 0)
      (let ([f (assq (car a) table)])
        (if f ((cdr f) a) 'error))))
(define (run n)
  (if (zero? n)
      'done
      (begin
        (dderiv '(+ (* 3 x x) (* a x x) (* b x) 5))
        (run (- n 1)))))
(run 2000)`,
		Expect: "done",
	})

	register(Program{
		Name:        "destruct",
		Description: "destructive list surgery with set-car!/set-cdr!",
		Source: `
(define (destructive n m)
  (let ([l (do ([i 10 (- i 1)] [a '() (cons '() a)]) ((= i 0) a))])
    (do ([i n (- i 1)]) ((= i 0) l)
      (cond
        [(null? (car l))
         (do ([l l (cdr l)]) ((null? l))
           (if (null? (car l)) (set-car! l (cons '() '())) #f)
           (nconc (car l) (do ([j m (- j 1)] [a '() (cons '() a)]) ((= j 0) a))))]
        [else
         (do ([l1 l (cdr l1)] [l2 (cdr l) (cdr l2)]) ((null? l2))
           (set-cdr! (do ([j (quotient (length (car l2)) 2) (- j 1)]
                          [a (car l2) (cdr a)])
                         ((zero? j) a)
                       (set-car! a i))
                     (let ([n (quotient (length (car l1)) 2)])
                       (cond
                         [(= n 0) (set-car! l1 '()) (car l1)]
                         [else
                          (do ([j n (- j 1)] [a (car l1) (cdr a)])
                              ((= j 1)
                               (let ([x (cdr a)]) (set-cdr! a '()) x))
                            (set-car! a i))]))))]))))
(define (nconc a b)
  (if (null? a) b (begin (set-cdr! (last-pair a) b) a)))
(length (destructive 600 50))`,
		Expect: "10",
	})

	register(Program{
		Name:        "div-iter",
		Description: "iterative halving of a 200-element list (tail recursion only)",
		Source: `
(define (create-n n)
  (do ([n n (- n 1)] [a '() (cons '() a)]) ((= n 0) a)))
(define ll (create-n 200))
(define (iterative-div2 l)
  (do ([l l (cddr l)] [a '() (cons (car l) a)]) ((null? l) a)))
(define (run n acc)
  (if (zero? n) acc (run (- n 1) (length (iterative-div2 ll)))))
(run 3000 0)`,
		Expect: "100",
	})

	register(Program{
		Name:        "div-rec",
		Description: "recursive halving of a 200-element list (deep non-tail recursion)",
		Source: `
(define (create-n n)
  (do ([n n (- n 1)] [a '() (cons '() a)]) ((= n 0) a)))
(define ll (create-n 200))
(define (recursive-div2 l)
  (if (null? l) '() (cons (car l) (recursive-div2 (cddr l)))))
(define (run n acc)
  (if (zero? n) acc (run (- n 1) (length (recursive-div2 ll)))))
(run 3000 0)`,
		Expect: "100",
	})

	register(Program{
		Name:        "traverse-init",
		Description: "creation of a 100-node doubly linked random graph",
		Source: traverseShared + `
(init-traverse)
'initialized`,
		Expect: "initialized",
	})

	register(Program{
		Name:        "traverse",
		Description: "repeated marking traversals of the random graph",
		Source: traverseShared + `
(init-traverse)
(run-traverse 30)`,
		Expect: "done",
	})
}

// traverseShared is a port of the Gabriel traverse benchmark. The
// original's defstruct nodes become 7-slot vectors; its random number
// generator becomes an explicit linear congruential generator so the
// interpreter and the VM agree deterministically.
const traverseShared = `
;; node: #(sons sons-count parents mark snb entry marker)
(define (make-node snb)
  (vector '() 0 '() #f snb 0 #f))
(define (node-sons n) (vector-ref n 0))
(define (node-parents n) (vector-ref n 2))
(define (node-mark n) (vector-ref n 3))
(define (node-snb n) (vector-ref n 4))
(define (set-node-sons! n v) (vector-set! n 0 v))
(define (set-node-parents! n v) (vector-set! n 2 v))
(define (set-node-mark! n v) (vector-set! n 3 v))

(define seed (box 74755))
(define (rand)
  (set-box! seed (modulo (* (unbox seed) 1309) 65536))
  (unbox seed))

(define nodes (box '()))
(define node-count 100)

(define (create-structure n)
  (let loop ([i 0] [acc '()])
    (if (= i n)
        (set-box! nodes (list->vector acc))
        (loop (+ i 1) (cons (make-node i) acc))))
  ;; connect each node to three random successors
  (let ([v (unbox nodes)])
    (let loop ([i 0])
      (if (= i n)
          'ok
          (let ([node (vector-ref v i)])
            (let inner ([k 0])
              (if (= k 3)
                  (loop (+ i 1))
                  (let ([child (vector-ref v (modulo (rand) n))])
                    (set-node-sons! node (cons child (node-sons node)))
                    (set-node-parents! child (cons node (node-parents child)))
                    (inner (+ k 1))))))))))

(define visit-count (box 0))

(define (mark-all node want)
  (if (eq? (node-mark node) want)
      #f
      (begin
        (set-node-mark! node want)
        (set-box! visit-count (+ (unbox visit-count) 1))
        (for-each (lambda (s) (mark-all s want)) (node-sons node))
        (for-each (lambda (p) (mark-all p want)) (node-parents node)))))

(define (init-traverse) (create-structure node-count))

(define (run-traverse iterations)
  (let loop ([i 0] [want #t])
    (if (= i iterations)
        'done
        (begin
          (mark-all (vector-ref (unbox nodes) 0) want)
          (loop (+ i 1) (not want))))))
`
